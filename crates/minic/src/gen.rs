//! Seeded random MiniC program generation.
//!
//! The generator produces the distractor corpus standing in for the paper's
//! randomly-selected Coreutils procedures (§5.2). Functions come in
//! *shapes* modelled after what that corpus actually contains — leaf
//! arithmetic helpers, loop accumulators, string scanners, struct walkers,
//! thin wrappers (§6.6's `exit_cleanup`) and macro-template clones (§6.6's
//! `DEFINE_SORT_FUNCTIONS`) — so that the statistical background model H0
//! sees realistic strand frequencies.
//!
//! Generated loops always terminate: every loop is counted, with a bound
//! derived from a masked parameter, and the induction variable is never
//! touched by body statements. This keeps differential testing (interpreter
//! vs compiled emulation) total.

use rand::prelude::*;
use rand::rngs::StdRng;

use crate::ast::{BinOp, Expr, Function, MemWidth, Stmt};
use crate::stdlib::EXTERNALS;

/// The archetypes of generated functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Shape {
    /// Straight-line arithmetic on scalar parameters.
    LeafArith,
    /// A counted loop accumulating into one or two locals.
    LoopAccumulate,
    /// A byte-scanning loop over a pointer parameter.
    StringScan,
    /// Loads at fixed offsets from a pointer ("struct field" access).
    StructWalk,
    /// A thin wrapper: a couple of external calls, almost no logic.
    Wrapper,
    /// A mix of the above.
    Mixed,
}

impl Shape {
    /// All shapes, for sweeps.
    pub const ALL: [Shape; 6] = [
        Shape::LeafArith,
        Shape::LoopAccumulate,
        Shape::StringScan,
        Shape::StructWalk,
        Shape::Wrapper,
        Shape::Mixed,
    ];
}

/// Tuning knobs for generation.
#[derive(Debug, Clone)]
pub struct GenConfig {
    /// Number of scalar parameters (in addition to pointer parameters).
    pub scalar_params: usize,
    /// Number of pointer parameters.
    pub pointer_params: usize,
    /// Rough statement budget for the function body.
    pub stmt_budget: usize,
    /// Maximum expression depth.
    pub max_expr_depth: usize,
    /// Probability of emitting an `if` at a statement slot.
    pub branch_prob: f64,
    /// Probability of emitting an external call statement.
    pub call_prob: f64,
}

impl Default for GenConfig {
    fn default() -> GenConfig {
        GenConfig {
            scalar_params: 2,
            pointer_params: 1,
            stmt_budget: 12,
            max_expr_depth: 3,
            branch_prob: 0.25,
            call_prob: 0.15,
        }
    }
}

struct Gen<'a> {
    rng: &'a mut StdRng,
    config: GenConfig,
    scalars: Vec<String>,
    pointers: Vec<String>,
    fresh: usize,
}

const ARITH_OPS: [BinOp; 9] = [
    BinOp::Add,
    BinOp::Sub,
    BinOp::Mul,
    BinOp::And,
    BinOp::Or,
    BinOp::Xor,
    BinOp::Shl,
    BinOp::Shr,
    BinOp::Sar,
];

const CMP_OPS: [BinOp; 6] = [
    BinOp::Eq,
    BinOp::Ne,
    BinOp::Slt,
    BinOp::Sle,
    BinOp::Ult,
    BinOp::Ule,
];

impl Gen<'_> {
    fn fresh_name(&mut self, prefix: &str) -> String {
        self.fresh += 1;
        format!("{prefix}{}", self.fresh)
    }

    fn small_const(&mut self) -> i64 {
        *[
            0, 1, 2, 3, 4, 5, 7, 8, 13, 16, 19, 24, 31, 32, 63, 64, 100, 255, 256, 0x13, 0x18,
        ]
        .choose(self.rng)
        .expect("non-empty")
    }

    fn scalar_expr(&mut self, depth: usize) -> Expr {
        if depth == 0 || self.rng.gen_bool(0.35) {
            if !self.scalars.is_empty() && self.rng.gen_bool(0.7) {
                let v = self.scalars.choose(self.rng).expect("non-empty").clone();
                Expr::Var(v)
            } else {
                Expr::Const(self.small_const())
            }
        } else {
            let op = *ARITH_OPS.choose(self.rng).expect("non-empty");
            // Keep shift amounts small constants so behaviour is stable.
            if matches!(op, BinOp::Shl | BinOp::Shr | BinOp::Sar) {
                Expr::bin(
                    op,
                    self.scalar_expr(depth - 1),
                    Expr::Const(i64::from(self.rng.gen_range(1u8..16))),
                )
            } else {
                Expr::bin(op, self.scalar_expr(depth - 1), self.scalar_expr(depth - 1))
            }
        }
    }

    fn cmp_expr(&mut self, depth: usize) -> Expr {
        let op = *CMP_OPS.choose(self.rng).expect("non-empty");
        Expr::bin(op, self.scalar_expr(depth), self.scalar_expr(depth))
    }

    fn pointer_addr(&mut self, index_var: Option<&str>) -> Expr {
        let p = self
            .pointers
            .choose(self.rng)
            .expect("pointer param exists")
            .clone();
        let base = Expr::Var(p);
        match index_var {
            Some(i) if self.rng.gen_bool(0.6) => Expr::add(base, Expr::var(i)),
            _ => {
                let off = self.rng.gen_range(0i64..32);
                if off == 0 {
                    base
                } else {
                    Expr::add(base, Expr::Const(off))
                }
            }
        }
    }

    fn call_stmt(&mut self) -> Stmt {
        let candidates: Vec<_> = EXTERNALS
            .iter()
            .filter(|e| usize::from(e.arity) <= self.scalars.len() + 1)
            .collect();
        let ext = candidates.choose(self.rng).expect("non-empty stdlib");
        let mut args = Vec::new();
        for i in 0..ext.arity {
            if i == 0 && !self.pointers.is_empty() && self.rng.gen_bool(0.6) {
                args.push(self.pointer_addr(None));
            } else {
                args.push(self.scalar_expr(1));
            }
        }
        let call = Expr::Call {
            name: ext.name.to_string(),
            args,
        };
        if ext.returns && self.rng.gen_bool(0.6) {
            let name = self.fresh_name("r");
            self.scalars.push(name.clone());
            Stmt::Let { name, init: call }
        } else {
            Stmt::ExprStmt(call)
        }
    }

    fn let_stmt(&mut self) -> Stmt {
        let init = if !self.pointers.is_empty() && self.rng.gen_bool(0.25) {
            let width = *[MemWidth::W8, MemWidth::W32, MemWidth::W64]
                .choose(self.rng)
                .expect("non-empty");
            Expr::load(self.pointer_addr(None), width)
        } else {
            self.scalar_expr(self.config.max_expr_depth)
        };
        let name = self.fresh_name("t");
        self.scalars.push(name.clone());
        Stmt::Let { name, init }
    }

    fn store_stmt(&mut self, index_var: Option<&str>) -> Stmt {
        let width = *[MemWidth::W8, MemWidth::W32, MemWidth::W64]
            .choose(self.rng)
            .expect("non-empty");
        Stmt::Store {
            addr: self.pointer_addr(index_var),
            width,
            value: self.scalar_expr(2),
        }
    }

    fn counted_loop(&mut self, body_budget: usize) -> Stmt {
        let i = self.fresh_name("i");
        let bound = self.fresh_name("n");
        // bound = (scalar & 63) + k: small, non-negative, terminating.
        let bound_init = Expr::add(
            Expr::bin(BinOp::And, self.scalar_expr(1), Expr::Const(63)),
            Expr::Const(i64::from(self.rng.gen_range(1u8..4))),
        );
        // Body statements may use but never assign the induction variable.
        let saved_scalars = self.scalars.len();
        self.scalars.push(i.clone());
        let mut body = Vec::new();
        // Early exit, like real scanners (uses `break`).
        if self.rng.gen_bool(0.3) {
            body.push(Stmt::If {
                cond: Expr::bin(BinOp::Eq, Expr::var(&i), self.scalar_expr(0)),
                then_body: vec![Stmt::Break],
                else_body: vec![],
            });
        }
        for _ in 0..body_budget {
            if !self.pointers.is_empty() && self.rng.gen_bool(0.4) {
                body.push(self.store_stmt(Some(&i)));
            } else if self.rng.gen_bool(0.5) {
                body.push(self.let_stmt());
            } else if let Some(v) = self.mutable_scalar(saved_scalars) {
                let op = *ARITH_OPS[..6].choose(self.rng).expect("non-empty");
                body.push(Stmt::Assign {
                    name: v.clone(),
                    value: Expr::bin(op, Expr::Var(v), self.scalar_expr(1)),
                });
            } else {
                body.push(self.let_stmt());
            }
        }
        body.push(Stmt::Assign {
            name: i.clone(),
            value: Expr::add(Expr::var(&i), Expr::Const(1)),
        });
        // Locals declared in the loop body are block-scoped.
        self.scalars.truncate(saved_scalars + 1);
        self.scalars.retain(|s| s != &i);
        let loop_stmt = Stmt::While {
            cond: Expr::bin(BinOp::Ult, Expr::var(&i), Expr::var(&bound)),
            body,
        };
        Stmt::If {
            cond: Expr::Const(1),
            then_body: vec![
                Stmt::Let {
                    name: bound,
                    init: bound_init,
                },
                Stmt::Let {
                    name: i,
                    init: Expr::Const(0),
                },
                loop_stmt,
            ],
            else_body: vec![],
        }
    }

    /// A scalar that existed before index `from` and is not an induction
    /// variable (those are named `i*` and excluded by construction here).
    fn mutable_scalar(&mut self, limit: usize) -> Option<String> {
        let slice = &self.scalars[..limit.min(self.scalars.len())];
        let candidates: Vec<_> = slice.iter().filter(|s| !s.starts_with('i')).collect();
        candidates.choose(self.rng).map(|s| s.to_string())
    }

    fn body_for(&mut self, shape: Shape) -> Vec<Stmt> {
        let mut body = Vec::new();
        match shape {
            Shape::LeafArith => {
                for _ in 0..self.config.stmt_budget.max(3) {
                    body.push(self.let_stmt());
                }
            }
            Shape::LoopAccumulate => {
                body.push(Stmt::Let {
                    name: "acc".into(),
                    init: Expr::Const(0),
                });
                self.scalars.push("acc".into());
                body.push(self.counted_loop(2));
                for _ in 0..self.config.stmt_budget / 4 {
                    body.push(self.let_stmt());
                }
            }
            Shape::StringScan => {
                body.push(Stmt::Let {
                    name: "len".into(),
                    init: Expr::Call {
                        name: "strlen".into(),
                        args: vec![self.pointer_addr(None)],
                    },
                });
                self.scalars.push("len".into());
                body.push(Stmt::Let {
                    name: "cap".into(),
                    init: Expr::bin(BinOp::And, Expr::var("len"), Expr::Const(31)),
                });
                self.scalars.push("cap".into());
                body.push(self.counted_loop(1));
            }
            Shape::StructWalk => {
                for off in [0i64, 8, 16, 24] {
                    let name = self.fresh_name("fld");
                    body.push(Stmt::Let {
                        name: name.clone(),
                        init: Expr::load(
                            Expr::add(Expr::Var(self.pointers[0].clone()), Expr::Const(off)),
                            MemWidth::W64,
                        ),
                    });
                    self.scalars.push(name);
                }
                for _ in 0..self.config.stmt_budget / 3 {
                    body.push(self.let_stmt());
                }
                body.push(self.store_stmt(None));
            }
            Shape::Wrapper => {
                body.push(self.call_stmt());
                if self.rng.gen_bool(0.7) {
                    body.push(self.call_stmt());
                }
            }
            Shape::Mixed => {
                for _ in 0..self.config.stmt_budget / 3 {
                    body.push(self.let_stmt());
                }
                if self.rng.gen_bool(0.5) {
                    body.push(self.counted_loop(2));
                }
                if self.rng.gen_bool(self.config.call_prob * 2.0) {
                    body.push(self.call_stmt());
                }
                if !self.pointers.is_empty() {
                    body.push(self.store_stmt(None));
                }
            }
        }
        // Optional branch wrapping a couple of extra statements.
        if self.rng.gen_bool(self.config.branch_prob) {
            let cond = self.cmp_expr(1);
            // Branch-local declarations must not leak into later expressions.
            let saved = self.scalars.len();
            let then_body = vec![self.let_stmt()];
            self.scalars.truncate(saved);
            let else_body = if self.rng.gen_bool(0.5) {
                vec![self.let_stmt()]
            } else {
                vec![]
            };
            self.scalars.truncate(saved);
            body.push(Stmt::If {
                cond,
                then_body,
                else_body,
            });
        }
        let ret = self.scalar_expr(2);
        body.push(Stmt::Return(Some(ret)));
        body
    }
}

/// Generates one function of the given shape.
pub fn generate_function(
    rng: &mut StdRng,
    name: impl Into<String>,
    shape: Shape,
    config: &GenConfig,
) -> Function {
    let mut params = Vec::new();
    let mut pointers = Vec::new();
    let mut scalars = Vec::new();
    let need_ptr = matches!(shape, Shape::StringScan | Shape::StructWalk);
    let pointer_params = if need_ptr {
        self::max1(config.pointer_params)
    } else {
        config.pointer_params
    };
    for k in 0..pointer_params {
        let p = format!("p{k}");
        params.push(p.clone());
        pointers.push(p);
    }
    for k in 0..config.scalar_params.max(1) {
        let s = format!("a{k}");
        params.push(s.clone());
        scalars.push(s);
    }
    let mut g = Gen {
        rng,
        config: config.clone(),
        scalars,
        pointers,
        fresh: 0,
    };
    let body = g.body_for(shape);
    Function::new(name, params, body)
}

fn max1(n: usize) -> usize {
    n.max(1)
}

/// Generates `count` clones of a "macro template" function: identical
/// statement skeleton, different constants and one different operator
/// (mirroring `DEFINE_SORT_FUNCTIONS` in §6.6).
pub fn generate_template_family(rng: &mut StdRng, base_name: &str, count: usize) -> Vec<Function> {
    let ops = [BinOp::Add, BinOp::Sub, BinOp::Xor, BinOp::And, BinOp::Or];
    (0..count)
        .map(|k| {
            let c1 = rng.gen_range(1i64..64);
            let c2 = rng.gen_range(1i64..64);
            let op = ops[k % ops.len()];
            Function::new(
                format!("{base_name}_{k}"),
                vec!["a".into(), "b".into()],
                vec![
                    Stmt::Let {
                        name: "x".into(),
                        init: Expr::bin(op, Expr::var("a"), Expr::Const(c1)),
                    },
                    Stmt::Let {
                        name: "y".into(),
                        init: Expr::bin(BinOp::Mul, Expr::var("b"), Expr::Const(c2)),
                    },
                    Stmt::If {
                        cond: Expr::bin(BinOp::Slt, Expr::var("x"), Expr::var("y")),
                        then_body: vec![Stmt::Return(Some(Expr::Const(-1)))],
                        else_body: vec![],
                    },
                    Stmt::Return(Some(Expr::bin(BinOp::Ne, Expr::var("x"), Expr::var("y")))),
                ],
            )
        })
        .collect()
}

/// Generates a deterministic module of `count` distractor functions with a
/// round-robin of shapes.
pub fn generate_module(seed: u64, name: impl Into<String>, count: usize) -> crate::ast::Module {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut module = crate::ast::Module::new(name);
    let config = GenConfig::default();
    for k in 0..count {
        let shape = Shape::ALL[k % Shape::ALL.len()];
        let f = generate_function(&mut rng, format!("fn_{seed}_{k}"), shape, &config);
        module.functions.push(f);
    }
    module
}

/// Derives the generation knobs for scale-tier source `index`: the
/// defaults perturbed deterministically so a 10k-procedure corpus spans
/// small leaf helpers through branchy, call-heavy bodies instead of 10k
/// near-identical functions.
fn scale_config(index: u64) -> GenConfig {
    GenConfig {
        scalar_params: 1 + (index % 3) as usize,
        pointer_params: (index % 2) as usize,
        stmt_budget: 6 + (index % 5) as usize * 4,
        max_expr_depth: 2 + (index % 3) as usize,
        branch_prob: 0.10 + 0.08 * (index % 4) as f64,
        call_prob: 0.05 + 0.07 * (index % 3) as f64,
    }
}

/// Generates the `index`-th scale-tier source function for `seed`.
///
/// Unlike [`generate_module`], which threads one RNG through the whole
/// module, every index re-seeds its own RNG from `(seed, index)` — so a
/// corpus generator can produce any window of the source stream without
/// materializing (or even generating) the functions before it. Shapes
/// round-robin and the [`GenConfig`] knobs vary with the index, giving
/// structural diversity across a 10k-function corpus.
pub fn generate_scale_source(seed: u64, index: u64) -> Function {
    // splitmix64 over (seed, index) decorrelates per-index streams.
    let mut z = seed ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    let mut rng = StdRng::seed_from_u64(z);
    let shape = Shape::ALL[(index % Shape::ALL.len() as u64) as usize];
    let config = scale_config(index);
    generate_function(&mut rng, format!("gen_{seed:x}_{index}"), shape, &config)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interp::run_function;
    use crate::memory::{Memory, StdHost};
    use crate::validate::validate_function;

    #[test]
    fn generated_functions_validate() {
        let mut rng = StdRng::seed_from_u64(7);
        let config = GenConfig::default();
        for shape in Shape::ALL {
            for k in 0..20 {
                let f = generate_function(&mut rng, format!("g{k}"), shape, &config);
                let errs = validate_function(&f);
                assert!(errs.is_empty(), "shape {shape:?} invalid: {errs:?}\n{f}");
            }
        }
    }

    #[test]
    fn generated_functions_run() {
        let mut rng = StdRng::seed_from_u64(11);
        let config = GenConfig::default();
        for shape in Shape::ALL {
            for k in 0..10 {
                let f = generate_function(&mut rng, format!("g{k}"), shape, &config);
                let mut mem = Memory::new();
                let buf = mem.alloc(256);
                let mut host = StdHost::default();
                let args = vec![buf, 17, 42, 3];
                run_function(&f, &args, &mut mem, &mut host)
                    .unwrap_or_else(|e| panic!("shape {shape:?} failed: {e}\n{f}"));
            }
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let a = generate_module(42, "m", 10);
        let b = generate_module(42, "m", 10);
        assert_eq!(a, b);
        let c = generate_module(43, "m", 10);
        assert_ne!(a, c);
    }

    #[test]
    fn template_family_shares_skeleton() {
        let mut rng = StdRng::seed_from_u64(5);
        let fam = generate_template_family(&mut rng, "strcmp_key", 4);
        assert_eq!(fam.len(), 4);
        for f in &fam {
            assert!(validate_function(f).is_empty());
            assert_eq!(f.body.len(), fam[0].body.len());
        }
        // But they are not identical.
        assert_ne!(fam[0].body, fam[1].body);
    }

    #[test]
    fn scale_sources_are_deterministic_independent_and_valid() {
        for index in 0..48 {
            let f = generate_scale_source(0xC0FFEE, index);
            assert_eq!(f, generate_scale_source(0xC0FFEE, index), "index {index}");
            let errs = validate_function(&f);
            assert!(errs.is_empty(), "index {index} invalid: {errs:?}\n{f}");
        }
        // Index-addressable: the same index yields the same function no
        // matter which window it is generated in — and names are unique.
        let names: std::collections::HashSet<String> = (0..48)
            .map(|i| generate_scale_source(0xC0FFEE, i).name)
            .collect();
        assert_eq!(names.len(), 48);
        assert_ne!(
            generate_scale_source(1, 7),
            generate_scale_source(2, 7),
            "seed must matter"
        );
    }

    #[test]
    fn wrappers_are_small() {
        let mut rng = StdRng::seed_from_u64(3);
        let config = GenConfig::default();
        let f = generate_function(&mut rng, "w", Shape::Wrapper, &config);
        assert!(f.size() < 30, "wrapper too large: {}", f.size());
    }
}
