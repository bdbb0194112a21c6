#![warn(missing_docs)]

//! # esh-solver — a bitvector equivalence engine
//!
//! The paper's pipeline discharges strand-equivalence queries through the
//! Boogie verifier backed by Z3 (§4.2). This crate is the from-scratch
//! replacement, specialized to exactly the fragment those queries live in:
//! quantifier-free, loop-free equalities over fixed-width bitvectors with
//! byte-addressed memory.
//!
//! Layers:
//!
//! * [`term`] — hash-consed terms with normalizing smart constructors
//!   (constant folding, AC canonicalization, linear combinations,
//!   strength-reduced shifts, store/load forwarding);
//! * [`eval`] — concrete evaluation for sound random refutation;
//! * [`sat`] — a from-scratch CDCL SAT solver;
//! * [`bitblast`] — Tseitin encoding with byte-accurate memory and
//!   Ackermann congruence for base-memory reads;
//! * [`equiv`] — the layered [`equiv::EquivChecker`] with a pair cache;
//!   each SAT query runs on its own fresh blaster and solver.
//!
//! ```
//! use esh_solver::equiv::{EquivChecker, Verdict};
//!
//! let mut ec = EquivChecker::new();
//! let x = ec.pool.var(0, 64);
//! let y = ec.pool.var(1, 64);
//! let xor = ec.pool.xor(vec![x, y]);
//! let or = ec.pool.or(vec![x, y]);
//! let and = ec.pool.and(vec![x, y]);
//! let diff = ec.pool.sub(or, and);
//! assert_eq!(ec.check_eq(xor, diff), Verdict::Equal);
//! ```

pub mod bitblast;
pub mod equiv;
pub mod eval;
pub mod sat;
pub mod term;

pub use equiv::{EquivChecker, EquivConfig, EquivStats, SolverPerf, Verdict};
pub use term::{TermId, TermPool};
