//! The intermediate verification language (IVL).
//!
//! A flat, non-branching SSA form mirroring the paper's BoogieIVL strands
//! (Figure 3): every intermediate value computed during execution gets a
//! fresh temporary, registers are always 64-bit with sub-register access
//! expressed through extract/concat, and memory is an SSA array threaded
//! through `store` operations.

use serde::{Deserialize, Serialize};
use std::fmt;

/// The sort of an IVL variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Sort {
    /// A bitvector of the given width (1..=64).
    Bv(u32),
    /// A byte-addressed memory array.
    Mem,
}

impl fmt::Display for Sort {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Sort::Bv(w) => write!(f, "bv{w}"),
            Sort::Mem => write!(f, "mem"),
        }
    }
}

/// Why an input variable exists — used for type-respecting input
/// correspondences in the VCP search (§5.5 "maintaining typing").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum InputKind {
    /// The value of a register at strand entry.
    Register,
    /// The initial memory array.
    Memory,
    /// The havoced result of an external call (return register).
    CallResult,
    /// A register havoced by a call (caller-saved clobber).
    Clobber,
}

/// A variable index into [`Proc::vars`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct VarId(pub u32);

impl VarId {
    /// The index as usize.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A variable declaration.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Var {
    /// Human-readable name (`v1`, `rax_in`, `mem0`).
    pub name: String,
    /// Sort.
    pub sort: Sort,
    /// `Some(kind)` if this is an input (unconstrained), `None` for temps.
    pub input: Option<InputKind>,
}

/// An operand: a variable or a constant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Operand {
    /// A variable reference.
    Var(VarId),
    /// A bitvector constant of the given width.
    Const {
        /// The value (masked to `width` bits).
        value: u64,
        /// The width in bits.
        width: u32,
    },
}

impl Operand {
    /// A width-64 constant.
    pub fn c64(value: u64) -> Operand {
        Operand::Const { value, width: 64 }
    }
}

/// IVL operations. Except where noted, all bitvector arguments share one
/// width, which is also the result width.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Op {
    /// Identity (a plain copy).
    Copy,
    /// Wrapping addition.
    Add,
    /// Wrapping subtraction.
    Sub,
    /// Wrapping multiplication.
    Mul,
    /// Bitwise and.
    And,
    /// Bitwise or.
    Or,
    /// Bitwise xor.
    Xor,
    /// Left shift (amount taken modulo width).
    Shl,
    /// Logical right shift.
    LShr,
    /// Arithmetic right shift.
    AShr,
    /// Bitwise complement.
    Not,
    /// Two's-complement negation.
    Neg,
    /// Equality → `bv1`.
    Eq,
    /// Disequality → `bv1`.
    Ne,
    /// Unsigned less-than → `bv1`.
    Ult,
    /// Unsigned less-or-equal → `bv1`.
    Ule,
    /// Signed less-than → `bv1`.
    Slt,
    /// Signed less-or-equal → `bv1`.
    Sle,
    /// `ite(c: bv1, t, e)`.
    Ite,
    /// Zero-extend to the given width.
    Zext(u32),
    /// Sign-extend to the given width.
    Sext(u32),
    /// Extract bits `hi..=lo` (result width `hi - lo + 1`).
    Extract(u32, u32),
    /// Concatenate `(hi, lo)` — result width is the sum.
    Concat,
    /// `load(mem, addr) → bv{w}` (little-endian, `w/8` bytes).
    Load(u32),
    /// `store(mem, addr, value: bv{w}) → mem`.
    Store(u32),
}

/// One SSA assignment.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Stmt {
    /// Destination variable (assigned exactly once).
    pub dst: VarId,
    /// Operation.
    pub op: Op,
    /// Arguments.
    pub args: Vec<Operand>,
}

/// A non-branching IVL procedure: the lifted form of one strand.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize, Default)]
pub struct Proc {
    /// Name (diagnostic only).
    pub name: String,
    /// All variables; inputs and temporaries.
    pub vars: Vec<Var>,
    /// Statements in dependency order.
    pub stmts: Vec<Stmt>,
}

impl Proc {
    /// Creates an empty procedure.
    pub fn new(name: impl Into<String>) -> Proc {
        Proc {
            name: name.into(),
            vars: Vec::new(),
            stmts: Vec::new(),
        }
    }

    /// Declares a new variable, returning its id.
    pub fn declare(
        &mut self,
        name: impl Into<String>,
        sort: Sort,
        input: Option<InputKind>,
    ) -> VarId {
        let id = VarId(self.vars.len() as u32);
        self.vars.push(Var {
            name: name.into(),
            sort,
            input,
        });
        id
    }

    /// Appends `dst = op(args)`.
    pub fn assign(&mut self, dst: VarId, op: Op, args: Vec<Operand>) {
        self.stmts.push(Stmt { dst, op, args });
    }

    /// The variable record for `id`.
    pub fn var(&self, id: VarId) -> &Var {
        &self.vars[id.index()]
    }

    /// Ids of all input variables.
    pub fn inputs(&self) -> Vec<VarId> {
        (0..self.vars.len() as u32)
            .map(VarId)
            .filter(|id| self.var(*id).input.is_some())
            .collect()
    }

    /// Ids of all non-input (computed) variables.
    pub fn temps(&self) -> Vec<VarId> {
        (0..self.vars.len() as u32)
            .map(VarId)
            .filter(|id| self.var(*id).input.is_none())
            .collect()
    }

    /// The sort of an operand.
    pub fn operand_sort(&self, o: &Operand) -> Sort {
        match o {
            Operand::Var(v) => self.var(*v).sort,
            Operand::Const { width, .. } => Sort::Bv(*width),
        }
    }

    /// Validates SSA form and operand sorts, returning human-readable
    /// problems (empty when well-formed).
    pub fn validate(&self) -> Vec<String> {
        let mut errors = Vec::new();
        let mut assigned = vec![false; self.vars.len()];
        for (i, v) in self.vars.iter().enumerate() {
            if v.input.is_some() {
                assigned[i] = true;
            }
        }
        for (k, s) in self.stmts.iter().enumerate() {
            for a in &s.args {
                if let Operand::Var(v) = a {
                    if v.index() >= self.vars.len() {
                        errors.push(format!("stmt {k}: out-of-range var"));
                    } else if !assigned[v.index()] {
                        errors.push(format!(
                            "stmt {k}: use of `{}` before assignment",
                            self.var(*v).name
                        ));
                    }
                }
            }
            if s.dst.index() >= self.vars.len() {
                errors.push(format!("stmt {k}: out-of-range dst"));
                continue;
            }
            if assigned[s.dst.index()] {
                errors.push(format!(
                    "stmt {k}: `{}` assigned twice",
                    self.var(s.dst).name
                ));
            }
            assigned[s.dst.index()] = true;
            if let Some(err) = self.check_stmt_sorts(s) {
                errors.push(format!("stmt {k}: {err}"));
            }
        }
        for (i, v) in self.vars.iter().enumerate() {
            if !assigned[i] {
                errors.push(format!("`{}` never assigned", v.name));
            }
        }
        errors
    }

    fn check_stmt_sorts(&self, s: &Stmt) -> Option<String> {
        let sorts: Vec<Sort> = s.args.iter().map(|a| self.operand_sort(a)).collect();
        let dst = self.var(s.dst).sort;
        let bv = |s: &Sort| match s {
            Sort::Bv(w) => Some(*w),
            Sort::Mem => None,
        };
        let expect = |ok: bool, msg: &str| if ok { None } else { Some(msg.to_string()) };
        match s.op {
            Op::Copy => expect(sorts.len() == 1 && sorts[0] == dst, "copy sort mismatch"),
            Op::Add
            | Op::Sub
            | Op::Mul
            | Op::And
            | Op::Or
            | Op::Xor
            | Op::Shl
            | Op::LShr
            | Op::AShr => expect(
                sorts.len() == 2 && sorts[0] == sorts[1] && sorts[0] == dst && bv(&dst).is_some(),
                "binary bv op sort mismatch",
            ),
            Op::Not | Op::Neg => expect(
                sorts.len() == 1 && sorts[0] == dst && bv(&dst).is_some(),
                "unary mismatch",
            ),
            Op::Eq | Op::Ne | Op::Ult | Op::Ule | Op::Slt | Op::Sle => expect(
                sorts.len() == 2 && sorts[0] == sorts[1] && dst == Sort::Bv(1),
                "comparison sort mismatch",
            ),
            Op::Ite => expect(
                sorts.len() == 3
                    && sorts[0] == Sort::Bv(1)
                    && sorts[1] == sorts[2]
                    && sorts[1] == dst,
                "ite sort mismatch",
            ),
            Op::Zext(to) | Op::Sext(to) => expect(
                sorts.len() == 1
                    && matches!(sorts[0], Sort::Bv(w) if w <= to)
                    && dst == Sort::Bv(to),
                "extension sort mismatch",
            ),
            Op::Extract(hi, lo) => expect(
                sorts.len() == 1
                    && hi >= lo
                    && matches!(sorts[0], Sort::Bv(w) if hi < w)
                    && dst == Sort::Bv(hi - lo + 1),
                "extract sort mismatch",
            ),
            Op::Concat => {
                let widths: Option<Vec<u32>> = sorts.iter().map(bv).collect();
                match widths {
                    Some(ws) if ws.len() == 2 => {
                        expect(dst == Sort::Bv(ws[0] + ws[1]), "concat width mismatch")
                    }
                    _ => Some("concat needs two bitvectors".into()),
                }
            }
            Op::Load(w) => expect(
                sorts.len() == 2
                    && sorts[0] == Sort::Mem
                    && sorts[1] == Sort::Bv(64)
                    && dst == Sort::Bv(w),
                "load sort mismatch",
            ),
            Op::Store(w) => expect(
                sorts.len() == 3
                    && sorts[0] == Sort::Mem
                    && sorts[1] == Sort::Bv(64)
                    && sorts[2] == Sort::Bv(w)
                    && dst == Sort::Mem,
                "store sort mismatch",
            ),
        }
    }
}

impl fmt::Display for Operand {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Operand::Var(v) => write!(f, "%{}", v.0),
            Operand::Const { value, width } => write!(f, "{value:#x}:bv{width}"),
        }
    }
}

impl Proc {
    fn fmt_operand(&self, o: &Operand) -> String {
        match o {
            Operand::Var(v) => self.var(*v).name.clone(),
            Operand::Const { value, width } => format!("{value:#x}:bv{width}"),
        }
    }
}

impl fmt::Display for Proc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "proc {}(", self.name)?;
        for (i, id) in self.inputs().iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            let v = self.var(*id);
            write!(f, "{}: {}", v.name, v.sort)?;
        }
        writeln!(f, ")")?;
        for s in &self.stmts {
            let args: Vec<String> = s.args.iter().map(|a| self.fmt_operand(a)).collect();
            writeln!(
                f,
                "  {} = {:?}({})",
                self.var(s.dst).name,
                s.op,
                args.join(", ")
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validate_accepts_simple_proc() {
        let mut p = Proc::new("s");
        let r = p.declare("r12_in", Sort::Bv(64), Some(InputKind::Register));
        let v1 = p.declare("v1", Sort::Bv(64), None);
        p.assign(v1, Op::Add, vec![Operand::Var(r), Operand::c64(0x13)]);
        assert!(p.validate().is_empty(), "{:?}", p.validate());
    }

    #[test]
    fn validate_rejects_use_before_assign() {
        let mut p = Proc::new("s");
        let v1 = p.declare("v1", Sort::Bv(64), None);
        let v2 = p.declare("v2", Sort::Bv(64), None);
        p.assign(v1, Op::Copy, vec![Operand::Var(v2)]);
        p.assign(v2, Op::Copy, vec![Operand::c64(0)]);
        assert!(!p.validate().is_empty());
    }

    #[test]
    fn validate_rejects_double_assignment() {
        let mut p = Proc::new("s");
        let v1 = p.declare("v1", Sort::Bv(64), None);
        p.assign(v1, Op::Copy, vec![Operand::c64(0)]);
        p.assign(v1, Op::Copy, vec![Operand::c64(1)]);
        assert!(!p.validate().is_empty());
    }

    #[test]
    fn validate_checks_sorts() {
        let mut p = Proc::new("s");
        let a = p.declare("a", Sort::Bv(64), Some(InputKind::Register));
        let v = p.declare("v", Sort::Bv(32), None);
        p.assign(v, Op::Add, vec![Operand::Var(a), Operand::c64(1)]);
        assert!(!p.validate().is_empty());
    }

    #[test]
    fn extract_and_concat_widths() {
        let mut p = Proc::new("s");
        let a = p.declare("a", Sort::Bv(64), Some(InputKind::Register));
        let lo = p.declare("lo", Sort::Bv(8), None);
        let hi = p.declare("hi", Sort::Bv(56), None);
        let back = p.declare("back", Sort::Bv(64), None);
        p.assign(lo, Op::Extract(7, 0), vec![Operand::Var(a)]);
        p.assign(hi, Op::Extract(63, 8), vec![Operand::Var(a)]);
        p.assign(back, Op::Concat, vec![Operand::Var(hi), Operand::Var(lo)]);
        assert!(p.validate().is_empty(), "{:?}", p.validate());
    }

    #[test]
    fn inputs_and_temps_partition_vars() {
        let mut p = Proc::new("s");
        let a = p.declare("a", Sort::Bv(64), Some(InputKind::Register));
        let m = p.declare("mem0", Sort::Mem, Some(InputKind::Memory));
        let v = p.declare("v", Sort::Bv(8), None);
        p.assign(v, Op::Load(8), vec![Operand::Var(m), Operand::Var(a)]);
        assert_eq!(p.inputs(), vec![a, m]);
        assert_eq!(p.temps(), vec![v]);
    }
}
