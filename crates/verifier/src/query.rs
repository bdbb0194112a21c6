//! Boogie-style joint queries over two strands (paper Algorithm 2's
//! program shape: assume input equalities, compose both bodies, assert
//! variable equalities, `Solve()`).

use esh_ivl::{Proc, Sort, VarId};
use esh_solver::{EquivChecker, EquivConfig, EquivStats, TermId, Verdict};

use crate::encode::{encode_proc, InputNamer};

/// A joint query/target program with assumptions and assertions, in the
/// shape of the paper's Algorithm 2.
#[derive(Debug)]
pub struct JointQuery<'a> {
    query: &'a Proc,
    target: &'a Proc,
    assumes: Vec<(VarId, VarId)>,
    asserts: Vec<(VarId, VarId)>,
}

impl<'a> JointQuery<'a> {
    /// Creates a joint program over `query` and `target` (their variable
    /// name spaces are separate by construction).
    pub fn new(query: &'a Proc, target: &'a Proc) -> JointQuery<'a> {
        JointQuery {
            query,
            target,
            assumes: Vec::new(),
            asserts: Vec::new(),
        }
    }

    /// `assume q_input == t_input`.
    ///
    /// # Panics
    ///
    /// Panics if either side is not an input or their sorts differ.
    pub fn assume_eq(&mut self, q_input: VarId, t_input: VarId) -> &mut Self {
        assert!(
            self.query.var(q_input).input.is_some(),
            "assume on non-input"
        );
        assert!(
            self.target.var(t_input).input.is_some(),
            "assume on non-input"
        );
        assert_eq!(
            self.query.var(q_input).sort,
            self.target.var(t_input).sort,
            "assumed inputs must share a sort"
        );
        self.assumes.push((q_input, t_input));
        self
    }

    /// `assert q_var == t_var`.
    pub fn assert_eq(&mut self, q_var: VarId, t_var: VarId) -> &mut Self {
        self.asserts.push((q_var, t_var));
        self
    }

    /// Discharges all assertions with the program verifier, returning one
    /// verdict per assertion in insertion order.
    pub fn solve(&self, checker: &mut EquivChecker) -> Vec<Verdict> {
        let mut namer = InputNamer::new();
        for (qi, ti) in &self.assumes {
            let shared = namer.fresh();
            namer.unify(0, *qi, shared);
            namer.unify(1, *ti, shared);
        }
        let q_terms = encode_proc(&mut checker.pool, self.query, |v| namer.id_for(0, v));
        let t_terms = encode_proc(&mut checker.pool, self.target, |v| namer.id_for(1, v));
        self.asserts
            .iter()
            .map(|(qv, tv)| {
                if self.query.var(*qv).sort != self.target.var(*tv).sort {
                    return Verdict::NotEqual;
                }
                checker.check_eq(q_terms[qv.index()], t_terms[tv.index()])
            })
            .collect()
    }
}

/// A long-lived verifier session: one term pool and decision cache shared
/// by many joint queries (the paper's batching, §5.5 — repeated strands
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

    /// Runs a joint query.
    pub fn solve(&mut self, query: &JointQuery<'_>) -> Vec<Verdict> {
        query.solve(&mut self.checker)
    }

    /// Decision statistics.
    pub fn stats(&self) -> EquivStats {
        self.checker.stats
    }

    /// SAT-solver cost counters for this session (a view into
    /// [`VerifierSession::stats`]).
    pub fn solver_perf(&self) -> esh_solver::SolverPerf {
        self.checker.stats.solver
    }

    /// Direct access to the underlying checker.
    pub fn checker_mut(&mut self) -> &mut EquivChecker {
        &mut self.checker
    }

    /// Read access to the underlying term pool.
    pub fn pool(&self) -> &esh_solver::TermPool {
        &self.checker.pool
    }

    /// Sorts of an encoded value: bitvector width (0 = memory).
    pub fn width(&self, t: TermId) -> u32 {
        self.checker.pool.width(t)
    }
}

/// Convenience: sort of an IVL variable as (is_mem, width).
pub fn var_shape(p: &Proc, v: VarId) -> (bool, u32) {
    match p.var(v).sort {
        Sort::Bv(w) => (false, w),
        Sort::Mem => (true, 0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use esh_asm::parse_proc;
    use esh_ivl::lift;

    fn lift_text(text: &str) -> Proc {
        let p = parse_proc(&format!("proc t\nentry:\n{text}")).expect("parses");
        lift("t", &p.blocks[0].insts)
    }

    #[test]
    fn figure3_joint_query_all_assertions_hold() {
        // Paper Figure 3: the gcc strand and the icc strand of the
        // Heartbleed length computation, assumed r12_q == rbx_t.
        let q = lift_text("lea r14d, [r12+0x13]\nmov esi, 0x18\nlea eax, [rsi+r14]");
        let t = lift_text(
            "mov r9, 0x13\nmov r13, rbx\nlea r13d, [r13+r9]\nadd r9, 0x5\nmov esi, r9d\n\
             lea eax, [rsi+r13]",
        );
        let mut session = VerifierSession::new();
        let mut jq = JointQuery::new(&q, &t);
        jq.assume_eq(q.inputs()[0], t.inputs()[0]);
        // Assert the final 64-bit sums equal.
        let q_out = q
            .temps()
            .into_iter()
            .rfind(|v| var_shape(&q, *v).1 == 64)
            .unwrap();
        let t_out = t
            .temps()
            .into_iter()
            .rfind(|v| var_shape(&t, *v).1 == 64)
            .unwrap();
        jq.assert_eq(q_out, t_out);
        let verdicts = session.solve(&jq);
        assert_eq!(verdicts, vec![esh_solver::Verdict::Equal]);
    }

    #[test]
    fn assertions_fail_without_assumptions() {
        let q = lift_text("mov rax, r12\nadd rax, 0x13");
        let t = lift_text("mov rax, rbx\nadd rax, 0x13");
        let mut session = VerifierSession::new();
        // Without assuming r12_q == rbx_t the sums are incomparable.
        let mut jq = JointQuery::new(&q, &t);
        let q_out = *q.temps().last().unwrap();
        let t_out = *t.temps().last().unwrap();
        jq.assert_eq(q_out, t_out);
        assert_eq!(session.solve(&jq), vec![esh_solver::Verdict::NotEqual]);
        // With the assumption they match.
        let mut jq2 = JointQuery::new(&q, &t);
        jq2.assume_eq(q.inputs()[0], t.inputs()[0]);
        jq2.assert_eq(q_out, t_out);
        assert_eq!(session.solve(&jq2), vec![esh_solver::Verdict::Equal]);
    }

    #[test]
    fn mismatched_sorts_assert_not_equal() {
        let q = lift_text("mov eax, r12d"); // 32-bit temps exist
        let t = lift_text("mov rax, rbx");
        let mut session = VerifierSession::new();
        let mut jq = JointQuery::new(&q, &t);
        let q32 = q
            .temps()
            .into_iter()
            .find(|v| var_shape(&q, *v).1 == 32)
            .unwrap();
        let t64 = *t.temps().last().unwrap();
        jq.assert_eq(q32, t64);
        assert_eq!(session.solve(&jq), vec![esh_solver::Verdict::NotEqual]);
    }

    #[test]
    fn session_cache_accumulates() {
        let q = lift_text("mov rax, r12\nimul rax, r12\nxor rax, r12");
        let t = lift_text("mov rdx, rbx\nimul rdx, rbx\nxor rdx, rbx");
        let mut session = VerifierSession::new();
        for _ in 0..2 {
            let mut jq = JointQuery::new(&q, &t);
            jq.assume_eq(q.inputs()[0], t.inputs()[0]);
            let q_out = *q.temps().last().unwrap();
            let t_out = *t.temps().last().unwrap();
            jq.assert_eq(q_out, t_out);
            assert_eq!(session.solve(&jq), vec![esh_solver::Verdict::Equal]);
        }
        // Identical encodings hit normalization/cache, not SAT, twice.
        assert!(session.stats().by_normalization >= 1);
    }
}
