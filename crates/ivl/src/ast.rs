//! The intermediate verification language (IVL).
//!
//! A flat, non-branching SSA form mirroring the paper's BoogieIVL strands
//! (Figure 3): every intermediate value computed during execution gets a
//! fresh temporary, registers are always 64-bit with sub-register access
//! expressed through extract/concat, and memory is an SSA array threaded
//! through `store` operations.

use std::fmt;

/// The sort of an IVL variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
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
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
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
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VarId(pub u32);

impl VarId {
    /// The index as usize.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A variable declaration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Var {
    /// Human-readable name (`v1`, `rax_in`, `mem0`).
    pub name: String,
    /// Sort.
    pub sort: Sort,
    /// `Some(kind)` if this is an input (unconstrained), `None` for temps.
    pub input: Option<InputKind>,
}

/// An operand: a variable or a constant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
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
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
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
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Stmt {
    /// Destination variable (assigned exactly once).
    pub dst: VarId,
    /// Operation.
    pub op: Op,
    /// Arguments.
    pub args: Vec<Operand>,
}

/// A non-branching IVL procedure: the lifted form of one strand.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
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

    /// Validates SSA form, widths and operand sorts, returning
    /// human-readable problems (empty when well-formed). Never panics,
    /// whatever the procedure holds: a statement with an out-of-range
    /// variable is reported and its sorts are not checked.
    pub fn validate(&self) -> Vec<String> {
        let mut errors = Vec::new();
        let mut assigned: Vec<bool> = self.vars.iter().map(|v| v.input.is_some()).collect();
        for v in &self.vars {
            if let Sort::Bv(w) = v.sort {
                if !BV_WIDTHS.contains(&w) {
                    errors.push(format!("`{}`: width {w} outside 1..=64", v.name));
                }
            }
        }
        for (k, s) in self.stmts.iter().enumerate() {
            let mut in_range = true;
            for a in &s.args {
                match *a {
                    Operand::Var(v) if v.index() >= self.vars.len() => {
                        errors.push(format!("stmt {k}: out-of-range var"));
                        in_range = false;
                    }
                    Operand::Var(v) if !assigned[v.index()] => errors.push(format!(
                        "stmt {k}: use of `{}` before assignment",
                        self.var(v).name
                    )),
                    Operand::Const { width, .. } if !BV_WIDTHS.contains(&width) => {
                        errors.push(format!("stmt {k}: constant width {width} outside 1..=64"));
                    }
                    _ => {}
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
            if !in_range {
                continue;
            }
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
                    && BV_WIDTHS.contains(&to)
                    && matches!(sorts[0], Sort::Bv(w) if w <= to)
                    && dst == Sort::Bv(to),
                "extension sort mismatch",
            ),
            Op::Extract(hi, lo) => expect(
                sorts.len() == 1
                    && hi >= lo
                    && hi < 64
                    && matches!(sorts[0], Sort::Bv(w) if hi < w)
                    && dst == Sort::Bv(hi - lo + 1),
                "extract sort mismatch",
            ),
            Op::Concat => {
                let widths: Option<Vec<u32>> = sorts.iter().map(bv).collect();
                match widths {
                    Some(ws) if ws.len() == 2 => expect(
                        ws[0].checked_add(ws[1]).is_some_and(|w| dst == Sort::Bv(w)),
                        "concat width mismatch",
                    ),
                    _ => Some("concat needs two bitvectors".into()),
                }
            }
            Op::Load(w) => expect(
                is_access_width(w)
                    && sorts.len() == 2
                    && sorts[0] == Sort::Mem
                    && sorts[1] == Sort::Bv(64)
                    && dst == Sort::Bv(w),
                "load sort mismatch",
            ),
            Op::Store(w) => expect(
                is_access_width(w)
                    && sorts.len() == 3
                    && sorts[0] == Sort::Mem
                    && sorts[1] == Sort::Bv(64)
                    && sorts[2] == Sort::Bv(w)
                    && dst == Sort::Mem,
                "store sort mismatch",
            ),
        }
    }
}

/// The widths [`Sort::Bv`] may carry.
const BV_WIDTHS: std::ops::RangeInclusive<u32> = 1..=64;

/// Whether `w` is a memory access width: whole bytes, at most 64 bits.
fn is_access_width(w: u32) -> bool {
    w.is_multiple_of(8) && BV_WIDTHS.contains(&w)
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
    fn validate_reports_out_of_range_operand_without_panicking() {
        let mut p = Proc::new("s");
        let a = p.declare("a", Sort::Bv(64), Some(InputKind::Register));
        let v = p.declare("v", Sort::Bv(64), None);
        p.assign(v, Op::Add, vec![Operand::Var(a), Operand::Var(VarId(7))]);
        let errs = p.validate();
        assert_eq!(errs, vec!["stmt 0: out-of-range var".to_string()]);
    }

    #[test]
    fn validate_rejects_widths_outside_1_to_64() {
        for w in [0, 65, 1000] {
            let mut p = Proc::new("s");
            let a = p.declare("a", Sort::Bv(w), Some(InputKind::Register));
            let v = p.declare("v", Sort::Bv(w), None);
            p.assign(v, Op::Zext(w), vec![Operand::Var(a)]);
            assert!(!p.validate().is_empty(), "bv{w} validated");
        }
        for w in [0, 65] {
            let mut p = Proc::new("s");
            let v = p.declare("v", Sort::Bv(64), None);
            p.assign(v, Op::Zext(64), vec![Operand::Const { value: 0, width: w }]);
            assert!(!p.validate().is_empty(), "constant bv{w} validated");
        }
    }

    #[test]
    fn validate_bounds_op_immediates() {
        let one = |op: Op, dst: Sort| {
            let mut p = Proc::new("s");
            let a = p.declare("a", Sort::Bv(64), Some(InputKind::Register));
            let v = p.declare("v", dst, None);
            p.assign(v, op, vec![Operand::Var(a)]);
            p.validate()
        };
        assert!(one(Op::Zext(64), Sort::Bv(64)).is_empty());
        assert!(!one(Op::Zext(65), Sort::Bv(65)).is_empty());
        assert!(!one(Op::Sext(128), Sort::Bv(128)).is_empty());
        assert!(!one(Op::Extract(64, 1), Sort::Bv(64)).is_empty());
        assert!(!one(Op::Extract(u32::MAX, 0), Sort::Bv(64)).is_empty());
        let access = |op: Op, value: u32| {
            let mut p = Proc::new("s");
            let m = p.declare("mem0", Sort::Mem, Some(InputKind::Memory));
            let a = p.declare("a", Sort::Bv(64), Some(InputKind::Register));
            let x = p.declare("x", Sort::Bv(value), Some(InputKind::Register));
            match op {
                Op::Load(_) => {
                    let v = p.declare("v", Sort::Bv(value), None);
                    p.assign(v, op, vec![Operand::Var(m), Operand::Var(a)]);
                }
                _ => {
                    let m1 = p.declare("mem1", Sort::Mem, None);
                    p.assign(
                        m1,
                        op,
                        vec![Operand::Var(m), Operand::Var(a), Operand::Var(x)],
                    );
                }
            }
            p.validate()
        };
        for w in [8, 16, 32, 64] {
            assert!(access(Op::Load(w), w).is_empty(), "load {w}");
            assert!(access(Op::Store(w), w).is_empty(), "store {w}");
        }
        for w in [0, 7, 12, 72] {
            assert!(!access(Op::Load(w), w.clamp(1, 64)).is_empty(), "load {w}");
            assert!(
                !access(Op::Store(w), w.clamp(1, 64)).is_empty(),
                "store {w}"
            );
        }
    }

    #[test]
    fn validate_concat_width_sum_does_not_overflow() {
        let mut p = Proc::new("s");
        let a = p.declare("a", Sort::Bv(u32::MAX), Some(InputKind::Register));
        let b = p.declare("b", Sort::Bv(2), Some(InputKind::Register));
        let v = p.declare("v", Sort::Bv(1), None);
        p.assign(v, Op::Concat, vec![Operand::Var(a), Operand::Var(b)]);
        let errs = p.validate();
        assert!(
            errs.iter().any(|e| e.contains("concat width mismatch")),
            "{errs:?}"
        );
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
