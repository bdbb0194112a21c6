#![warn(missing_docs)]

//! # esh-verifier — the program-verifier layer
//!
//! The paper encodes strand similarity as Boogie procedures: assume input
//! equality under a correspondence γ, sequentially compose the strands,
//! assert equality of all variable pairs, and let the verifier label each
//! assertion (§4.2). This crate provides that interface over the
//! from-scratch `esh-solver` backend:
//!
//! * [`encode_proc`]/[`InputNamer`] — lower an IVL strand into solver
//!   terms, realizing assumptions by variable unification;
//! * [`VerifierSession`] — a long-lived session whose term pool and
//!   decision cache are shared across queries (the paper's batching).
//!
//! # Examples
//!
//! Prove two single-instruction strands equivalent under an input
//! correspondence: `assume r12_q == rbx_t` is realized by giving both
//! inputs one shared name, then `assert` decides the pair of results.
//!
//! ```
//! use esh_asm::parse_inst;
//! use esh_ivl::lift;
//! use esh_verifier::{InputNamer, Verdict, VerifierSession};
//!
//! let q = lift("q", &[parse_inst("lea r14, [r12+0x13]").unwrap()]);
//! let t = lift("t", &[parse_inst("lea rcx, [rbx+0x13]").unwrap()]);
//! let mut namer = InputNamer::new();
//! let shared = namer.fresh();
//! namer.unify(0, q.inputs()[0], shared);
//! namer.unify(1, t.inputs()[0], shared);
//! let mut session = VerifierSession::new();
//! let q_terms = session.encode(&q, |v| namer.id_for(0, v));
//! let t_terms = session.encode(&t, |v| namer.id_for(1, v));
//! let (qv, tv) = (q.temps()[0], t.temps()[0]);
//! assert_eq!(session.check_eq(q_terms[qv.index()], t_terms[tv.index()]), Verdict::Equal);
//! ```

mod encode;
mod session;

pub use encode::{encode_proc, InputNamer};
pub use esh_solver::{EquivConfig, EquivStats, Verdict};
pub use session::VerifierSession;
