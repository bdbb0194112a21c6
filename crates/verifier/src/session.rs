//! The verifier session: one term pool and decision cache shared by
//! every strand pair a worker decides (paper Algorithm 2's `Solve()`,
//! batched as in §5.5).

use esh_ivl::{Proc, VarId};
use esh_solver::{EquivChecker, EquivConfig, EquivStats, TermId, Verdict};

use crate::encode::encode_proc;

/// A long-lived verifier session: one term pool and decision cache shared
/// by many strand pairs (the paper's batching, §5.5 — repeated strands
/// and repeated subterms are decided once), so the longer a session
/// lives, the cheaper its queries get; the engine keeps sessions alive
/// across whole queries for exactly this reason. Only terms and verdicts
/// are shared: each SAT query runs on its own fresh solver.
#[derive(Debug, Default)]
pub struct VerifierSession {
    checker: EquivChecker,
}

impl VerifierSession {
    /// Creates a session with default budgets.
    pub fn new() -> VerifierSession {
        VerifierSession::default()
    }

    /// Creates a session with explicit budgets.
    pub fn with_config(config: EquivConfig) -> VerifierSession {
        VerifierSession {
            checker: EquivChecker::with_config(config),
        }
    }

    /// Encodes a procedure with caller-controlled input naming.
    pub fn encode(&mut self, proc_: &Proc, input_id: impl FnMut(VarId) -> u32) -> Vec<TermId> {
        encode_proc(&mut self.checker.pool, proc_, input_id)
    }

    /// Decides equality of two encoded values.
    pub fn check_eq(&mut self, a: TermId, b: TermId) -> Verdict {
        self.checker.check_eq(a, b)
    }

    /// Decision statistics.
    pub fn stats(&self) -> EquivStats {
        self.checker.stats
    }

    /// Read access to the underlying term pool.
    pub fn pool(&self) -> &esh_solver::TermPool {
        &self.checker.pool
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::InputNamer;
    use esh_asm::parse_proc;
    use esh_ivl::{lift, Sort};

    fn lift_text(text: &str) -> Proc {
        let p = parse_proc(&format!("proc t\nentry:\n{text}")).expect("parses");
        lift("t", &p.blocks[0].insts)
    }

    /// Encodes `q` and `t` into `session`, unifying each `assume`d input
    /// pair, and decides every `(q var, t var)` pair of `asserts`.
    fn decide(
        session: &mut VerifierSession,
        (q, t): (&Proc, &Proc),
        assumes: &[(VarId, VarId)],
        asserts: &[(VarId, VarId)],
    ) -> Vec<Verdict> {
        let mut namer = InputNamer::new();
        for &(qi, ti) in assumes {
            let shared = namer.fresh();
            namer.unify(0, qi, shared);
            namer.unify(1, ti, shared);
        }
        let q_terms = session.encode(q, |v| namer.id_for(0, v));
        let t_terms = session.encode(t, |v| namer.id_for(1, v));
        asserts
            .iter()
            .map(|(qv, tv)| session.check_eq(q_terms[qv.index()], t_terms[tv.index()]))
            .collect()
    }

    fn last_temp_of_width(p: &Proc, w: u32) -> VarId {
        p.temps()
            .into_iter()
            .rfind(|v| p.var(*v).sort == Sort::Bv(w))
            .expect("temp of that width")
    }

    #[test]
    fn figure3_pair_is_equal_only_under_its_input_correspondence() {
        // Paper Figure 3: the gcc strand and the icc strand of the
        // Heartbleed length computation, equal when r12_q == rbx_t.
        let q = lift_text("lea r14d, [r12+0x13]\nmov esi, 0x18\nlea eax, [rsi+r14]");
        let t = lift_text(
            "mov r9, 0x13\nmov r13, rbx\nlea r13d, [r13+r9]\nadd r9, 0x5\nmov esi, r9d\n\
             lea eax, [rsi+r13]",
        );
        let out = [(last_temp_of_width(&q, 64), last_temp_of_width(&t, 64))];
        let mut session = VerifierSession::new();
        assert_eq!(
            decide(&mut session, (&q, &t), &[], &out),
            [Verdict::NotEqual]
        );
        let assume = [(q.inputs()[0], t.inputs()[0])];
        assert_eq!(
            decide(&mut session, (&q, &t), &assume, &out),
            [Verdict::Equal]
        );
    }

    #[test]
    fn mismatched_sorts_are_not_equal() {
        let q = lift_text("mov eax, r12d");
        let t = lift_text("mov rax, rbx");
        let pair = [(last_temp_of_width(&q, 32), *t.temps().last().unwrap())];
        let mut session = VerifierSession::new();
        let assume = [(q.inputs()[0], t.inputs()[0])];
        assert_eq!(
            decide(&mut session, (&q, &t), &assume, &pair),
            [Verdict::NotEqual]
        );
    }

    #[test]
    fn session_reuses_terms_and_verdicts_across_pairs() {
        let q = lift_text("mov rax, r12\nimul rax, r12\nxor rax, r12");
        let t = lift_text("mov rdx, rbx\nimul rdx, rbx\nxor rdx, rbx");
        let assume = [(q.inputs()[0], t.inputs()[0])];
        let out = [(*q.temps().last().unwrap(), *t.temps().last().unwrap())];
        let mut session = VerifierSession::new();
        for _ in 0..2 {
            assert_eq!(
                decide(&mut session, (&q, &t), &assume, &out),
                [Verdict::Equal]
            );
        }
        // Identical encodings are decided by normalization, not SAT.
        assert!(session.stats().by_normalization >= 1);
    }
}
