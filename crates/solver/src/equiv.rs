//! The layered equivalence checker: normalize → randomly refute →
//! bit-blast and decide.
//!
//! This is the `Solve()` backend of the paper's Algorithm 2: given two
//! values computed by a joint query/target strand program under assumed
//! input equalities, decide whether they are equal on *all* inputs.
//!
//! Layering (fast → slow), with soundness notes:
//!
//! 1. **Normalization** (free): terms were built through the normalizing
//!    pool, so identical handles ⇒ equal. Sound.
//! 2. **Random refutation**: any concrete assignment distinguishing the
//!    terms proves inequality. Sound for `NotEqual`.
//! 3. **Directed boundary probing**: evaluation on assignments that pin
//!    one input variable to a constant harvested from the pair (±1),
//!    catching sparse-difference pairs — off-by-one comparisons against
//!    immediates — that random sampling essentially never hits. Sound
//!    for `NotEqual`.
//! 4. **Bit-blasting + CDCL**: exact for bitvector terms within the
//!    conflict budget; over budget (or structurally oversized) yields
//!    [`Verdict::Unknown`], which VCP counts as "not matched" —
//!    conservative in the direction the paper prefers (missing a match
//!    can only lower similarity, never produce a false positive).
//!
//! Memory-sorted terms (whole store chains) are compared by normalization
//! and random refutation only; a full array-theory decision is not needed
//! because strand outputs compared across procedures are predominantly
//! bitvector values.

use std::collections::HashMap;

use serde::{Deserialize, Serialize};

use crate::bitblast::BitBlaster;
use crate::eval::{eval, Assignment, CVal, EvalPlan};
use crate::incremental::{IncrementalBlaster, IncrementalLimits, SolverPerf};
use crate::term::{TermId, TermPool};

/// The equivalence verdict for a pair of terms.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Proven equal on all inputs.
    Equal,
    /// A distinguishing input exists.
    NotEqual,
    /// Undecided within budget (treated as not-matched by VCP).
    Unknown,
}

/// Budgets for the checker.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EquivConfig {
    /// Random refutation rounds before bit-blasting.
    pub random_rounds: u64,
    /// CDCL conflict budget per query.
    pub sat_budget: u64,
    /// Maximum term-DAG size to attempt bit-blasting on.
    pub max_dag: usize,
    /// Maximum memory blast cost (Σ loads × store-chain depth).
    pub max_mem_cost: usize,
    /// Maximum multiplier blast cost (Σ width² over variable×variable
    /// multiplications).
    pub max_mul_cost: usize,
    /// Decide SAT queries on the shared incremental solver (see
    /// [`IncrementalBlaster`]) instead of a fresh blaster per query.
    pub incremental: bool,
    /// Incremental only: rebuild the shared solver past this many
    /// variables.
    pub solver_max_vars: usize,
    /// Incremental only: rebuild the shared solver past this many
    /// clauses.
    pub solver_max_clauses: usize,
    /// Incremental only: reduce the learnt-clause database past this many
    /// retained learnts.
    pub reduce_learnts_at: usize,
}

impl Default for EquivConfig {
    fn default() -> EquivConfig {
        let lim = IncrementalLimits::default();
        EquivConfig {
            random_rounds: 6,
            sat_budget: 4_000,
            max_dag: 4_000,
            max_mem_cost: 16,
            max_mul_cost: 1_100,
            incremental: true,
            solver_max_vars: lim.max_vars,
            solver_max_clauses: lim.max_clauses,
            reduce_learnts_at: lim.reduce_learnts_at,
        }
    }
}

impl EquivConfig {
    /// Stable FNV-1a digest over every budget. Two configs with the same
    /// fingerprint decide term pairs identically, so cached or persisted
    /// results keyed by it are safe to reuse.
    pub fn fingerprint(&self) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for field in [
            self.random_rounds,
            self.sat_budget,
            self.max_dag as u64,
            self.max_mem_cost as u64,
            self.max_mul_cost as u64,
            // The incremental-solver knobs cannot change verdicts (both
            // paths decide the same theory under the same conflict
            // budget), but they are part of the config surface; keep the
            // fingerprint an honest digest of every field.
            u64::from(self.incremental),
            self.solver_max_vars as u64,
            self.solver_max_clauses as u64,
            self.reduce_learnts_at as u64,
        ] {
            for b in field.to_le_bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0000_0100_0000_01B3);
            }
        }
        h
    }
}

/// Counters describing how queries were decided.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EquivStats {
    /// Decided by handle identity (normalization).
    pub by_normalization: u64,
    /// Refuted by a random assignment.
    pub by_random: u64,
    /// Refuted by a directed boundary probe (one input variable pinned to
    /// a constant harvested from the pair's own structure).
    pub by_directed: u64,
    /// Proven equal by SAT.
    pub sat_equal: u64,
    /// Refuted by SAT.
    pub sat_not_equal: u64,
    /// Returned unknown (budget/size).
    pub unknown: u64,
    /// Served from the pair cache.
    pub cache_hits: u64,
    /// SAT-solver cost counters (filled by both the incremental and the
    /// fresh-blaster paths).
    pub solver: SolverPerf,
}

/// A term pool plus decision machinery and a pair cache.
#[derive(Default)]
pub struct EquivChecker {
    /// The underlying term pool (build terms through this).
    pub pool: TermPool,
    /// Budgets.
    pub config: EquivConfig,
    /// Decision counters.
    pub stats: EquivStats,
    cache: HashMap<(TermId, TermId), Verdict>,
    blaster: IncrementalBlaster,
}

impl std::fmt::Debug for EquivChecker {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EquivChecker")
            .field("terms", &self.pool.len())
            .field("config", &self.config)
            .field("stats", &self.stats)
            .finish()
    }
}

impl EquivChecker {
    /// Creates a checker with default budgets.
    pub fn new() -> EquivChecker {
        EquivChecker::default()
    }

    /// Creates a checker with explicit budgets.
    pub fn with_config(config: EquivConfig) -> EquivChecker {
        EquivChecker {
            config,
            ..EquivChecker::default()
        }
    }

    /// Decides whether `a == b` holds for all inputs.
    pub fn check_eq(&mut self, a: TermId, b: TermId) -> Verdict {
        if a == b {
            self.stats.by_normalization += 1;
            return Verdict::Equal;
        }
        if self.pool.width(a) != self.pool.width(b) {
            self.stats.by_random += 1;
            return Verdict::NotEqual;
        }
        let key = if a < b { (a, b) } else { (b, a) };
        if let Some(v) = self.cache.get(&key) {
            self.stats.cache_hits += 1;
            return *v;
        }
        let v = self.decide(a, b);
        self.cache.insert(key, v);
        v
    }

    fn decide(&mut self, a: TermId, b: TermId) -> Verdict {
        // Random refutation with value-feedback seeding. Round 0 uses a
        // fixed seed; every later round folds a digest of the value both
        // sides agreed on into the next seed. This diversifies the
        // assignments *per pair* (pairs that agree on different values
        // diverge immediately) without keying on raw `TermId`s — ids
        // depend on per-session term construction order, which the
        // work-stealing scheduler makes nondeterministic, and seeds
        // derived from them would make engine scores vary run to run.
        // The digest is a structural property of the pair, so this stays
        // fully deterministic and symmetric in (a, b).
        let mut seed = 0x9e37u64 + 1;
        for _ in 0..self.config.random_rounds {
            let asn = Assignment::random(seed);
            let va = eval(&self.pool, a, &asn);
            if va != eval(&self.pool, b, &asn) {
                self.stats.by_random += 1;
                return Verdict::NotEqual;
            }
            let digest = match va {
                CVal::Bv(v) => v,
                CVal::Mem(_) => 0x004d_454d,
            };
            seed = (seed ^ digest)
                .wrapping_mul(0x2545_f491_4f6c_dd1d)
                .wrapping_add(0x9e37_79b9_7f4a_7c15);
        }
        // Directed boundary probing: random rounds systematically miss
        // pairs whose difference set is vanishingly sparse. The classic
        // shape is a comparison against neighbouring immediates — `x < 5`
        // vs `x < 6` differ only at `x = 5` — which binaries produce in
        // bulk from loop bounds and field offsets; the distinguishing
        // inputs sit *at* the constants appearing in the terms. Probing
        // each input variable at every harvested constant (±1) finds the
        // witness in microseconds of evaluation where refuting through
        // the SAT layer costs a full solver model search. Sound for
        // `NotEqual` only; never claims equality.
        if self.directed_refute(a, b) {
            self.stats.by_directed += 1;
            return Verdict::NotEqual;
        }
        // Memory sort: no bit-level decision; random agreement is not a
        // proof, so remain unknown.
        if self.pool.width(a) == 0 {
            self.stats.unknown += 1;
            return Verdict::Unknown;
        }
        if self.pool.dag_size(a) + self.pool.dag_size(b) > self.config.max_dag {
            self.stats.unknown += 1;
            return Verdict::Unknown;
        }
        // Memory terms blast into per-byte address-comparison mux chains:
        // the CNF grows with (loads × store-chain length). Cap that cost.
        let mem_cost = self.mem_blast_cost(a) + self.mem_blast_cost(b);
        if mem_cost > self.config.max_mem_cost {
            self.stats.unknown += 1;
            return Verdict::Unknown;
        }
        // Variable×variable multiplication blasts into width² adders and
        // produces SAT instances that routinely exhaust the conflict
        // budget; bail out early instead of burning it.
        let mul_cost = self.mul_blast_cost(a) + self.mul_blast_cost(b);
        if mul_cost > self.config.max_mul_cost {
            self.stats.unknown += 1;
            return Verdict::Unknown;
        }
        self.sat_decide(a, b)
    }

    /// Probes assignments that pin one input variable to a boundary value
    /// harvested from the pair's own term structure; returns `true` when
    /// one distinguishes `a` from `b` (a sound `NotEqual` witness).
    ///
    /// Fully deterministic: variables and constants are collected
    /// structurally and probed in sorted order under fixed caps, so
    /// verdicts cannot vary run to run or between construction orders.
    fn directed_refute(&mut self, a: TermId, b: TermId) -> bool {
        use crate::term::TermOp;
        // Bound the probe budget: caps are part of the decision procedure
        // (changing them can flip Unknown/NotEqual verdicts), so they are
        // fixed constants rather than tunable configuration.
        const MAX_VARS: usize = 8;
        const MAX_CONSTS: usize = 12;
        let mut seen = std::collections::HashSet::new();
        let mut stack = vec![a, b];
        let mut vars: Vec<u32> = Vec::new();
        let mut consts: Vec<u64> = Vec::new();
        while let Some(x) = stack.pop() {
            if !seen.insert(x) {
                continue;
            }
            let data = self.pool.data(x);
            match data.op {
                TermOp::Var(id) => vars.push(id),
                TermOp::Const(c) => consts.push(c),
                _ => {}
            }
            stack.extend(data.args.iter().copied());
        }
        vars.sort_unstable();
        vars.dedup();
        vars.truncate(MAX_VARS);
        consts.sort_unstable();
        consts.dedup();
        consts.truncate(MAX_CONSTS);
        if vars.is_empty() || consts.is_empty() {
            return false;
        }
        // Probe at each constant and its neighbours: the witness for an
        // off-by-one comparison sits next to the immediate, not on it.
        let mut cands: Vec<u64> = Vec::with_capacity(consts.len() * 3);
        for &c in &consts {
            cands.push(c.wrapping_sub(1));
            cands.push(c);
            cands.push(c.wrapping_add(1));
        }
        cands.sort_unstable();
        cands.dedup();
        let plan = EvalPlan::new(&self.pool, &[a, b]);
        // Unpinned variables keep the fixed pseudo-random base, so each
        // probe perturbs exactly one variable of an otherwise-shared
        // assignment.
        let mut asn = Assignment::random(0x0d1e);
        for &v in &vars {
            for &c in &cands {
                asn.vars.insert(v, c);
                let vals = plan.eval_round(&self.pool, &asn);
                if vals[0] != vals[1] {
                    return true;
                }
            }
            asn.vars.remove(&v);
        }
        false
    }

    /// Estimated memory blast cost of `t`: per load, the number of bytes
    /// read times the store-chain depth it sees through.
    fn mem_blast_cost(&self, t: TermId) -> usize {
        use crate::term::TermOp;
        let mut seen = std::collections::HashSet::new();
        let mut stack = vec![t];
        let mut cost = 0usize;
        while let Some(x) = stack.pop() {
            if !seen.insert(x) {
                continue;
            }
            let data = self.pool.data(x);
            if let TermOp::Load = data.op {
                let bytes = (data.width / 8).max(1) as usize;
                // Depth of the store chain under the memory argument.
                let mut depth = 0usize;
                let mut m = data.args[0];
                while let TermOp::Store = self.pool.data(m).op {
                    depth += 1;
                    m = self.pool.data(m).args[0];
                }
                cost += bytes * (depth + 1);
            }
            stack.extend(data.args.iter().copied());
        }
        cost
    }

    /// Estimated multiplier blast cost of `t`: width² per multiplication
    /// with two or more non-constant factors.
    fn mul_blast_cost(&self, t: TermId) -> usize {
        use crate::term::TermOp;
        let mut seen = std::collections::HashSet::new();
        let mut stack = vec![t];
        let mut cost = 0usize;
        while let Some(x) = stack.pop() {
            if !seen.insert(x) {
                continue;
            }
            let data = self.pool.data(x);
            if let TermOp::Mul = data.op {
                let non_const = data
                    .args
                    .iter()
                    .filter(|a| self.pool.as_const(**a).is_none())
                    .count();
                if non_const >= 2 {
                    let w = data.width as usize;
                    cost += w * w * (non_const - 1);
                }
            }
            stack.extend(data.args.iter().copied());
        }
        cost
    }

    fn sat_decide(&mut self, a: TermId, b: TermId) -> Verdict {
        let res = if self.config.incremental {
            let limits = IncrementalLimits {
                max_vars: self.config.solver_max_vars,
                max_clauses: self.config.solver_max_clauses,
                reduce_learnts_at: self.config.reduce_learnts_at,
            };
            self.blaster.prove_equal(
                &self.pool,
                a,
                b,
                self.config.sat_budget,
                &limits,
                &mut self.stats.solver,
            )
        } else {
            let mut bb = BitBlaster::new();
            let t0 = std::time::Instant::now();
            let r = bb.prove_equal(&self.pool, a, b, self.config.sat_budget);
            let perf = &mut self.stats.solver;
            perf.sat_queries += 1;
            perf.blast_cache_hits += bb.blast_hits;
            perf.blast_cache_misses += bb.blast_misses;
            perf.conflicts += bb.sat.conflicts;
            perf.sat_time_ns += t0.elapsed().as_nanos() as u64;
            r
        };
        match res {
            Some(true) => {
                self.stats.sat_equal += 1;
                Verdict::Equal
            }
            Some(false) => {
                self.stats.sat_not_equal += 1;
                Verdict::NotEqual
            }
            None => {
                self.stats.unknown += 1;
                Verdict::Unknown
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layered_decisions_hit_expected_layers() {
        let mut ec = EquivChecker::new();
        let x = ec.pool.var(0, 64);
        let y = ec.pool.var(1, 64);

        // Layer 1: normalization.
        let five = ec.pool.constant(5, 64);
        let four = ec.pool.constant(4, 64);
        let a = ec.pool.mul(vec![five, x]);
        let x4 = ec.pool.mul(vec![four, x]);
        let b = ec.pool.add2(x4, x);
        assert_eq!(ec.check_eq(a, b), Verdict::Equal);
        assert_eq!(ec.stats.by_normalization, 1);

        // Layer 2: random refutation.
        assert_eq!(ec.check_eq(x, y), Verdict::NotEqual);
        assert_eq!(ec.stats.by_random, 1);

        // Layer 3: SAT proof of a non-syntactic identity.
        let xor = ec.pool.xor(vec![x, y]);
        let or = ec.pool.or(vec![x, y]);
        let and = ec.pool.and(vec![x, y]);
        let diff = ec.pool.sub(or, and);
        assert_eq!(ec.check_eq(xor, diff), Verdict::Equal);
        assert_eq!(ec.stats.sat_equal, 1);
    }

    #[test]
    fn directed_probe_refutes_sparse_difference_pairs() {
        // `x < 5` vs `x < 6` differ only at x = 5: a 1-in-2^64 difference
        // set that random rounds essentially never hit, but whose witness
        // sits on a constant harvested from the pair itself. The directed
        // layer must refute it before the SAT layer pays a model search.
        let mut ec = EquivChecker::new();
        let x = ec.pool.var(0, 64);
        let five = ec.pool.constant(5, 64);
        let six = ec.pool.constant(6, 64);
        let lt5 = ec.pool.ult(x, five);
        let lt6 = ec.pool.ult(x, six);
        assert_eq!(ec.check_eq(lt5, lt6), Verdict::NotEqual);
        assert_eq!(ec.stats.by_directed, 1);
        assert_eq!(ec.stats.by_random, 0);
        assert_eq!(ec.stats.solver.sat_queries, 0);
    }

    #[test]
    fn cache_serves_repeat_queries() {
        let mut ec = EquivChecker::new();
        let x = ec.pool.var(0, 32);
        let y = ec.pool.var(1, 32);
        let xor = ec.pool.xor(vec![x, y]);
        let or = ec.pool.or(vec![x, y]);
        let and = ec.pool.and(vec![x, y]);
        let diff = ec.pool.sub(or, and);
        let v1 = ec.check_eq(xor, diff);
        let v2 = ec.check_eq(diff, xor);
        assert_eq!(v1, v2);
        assert_eq!(ec.stats.cache_hits, 1);
        assert_eq!(ec.stats.sat_equal, 1);
    }

    #[test]
    fn checker_survives_solver_watermark_fallback() {
        // A watermark so tight that every SAT query trips a solver
        // rebuild: verdicts must be unaffected.
        let mut ec = EquivChecker::with_config(EquivConfig {
            solver_max_vars: 8,
            solver_max_clauses: 16,
            ..Default::default()
        });
        for w in [16u32, 24, 32] {
            let x = ec.pool.var(0, w);
            let y = ec.pool.var(1, w);
            let xor = ec.pool.xor(vec![x, y]);
            let or = ec.pool.or(vec![x, y]);
            let and = ec.pool.and(vec![x, y]);
            let diff = ec.pool.sub(or, and);
            assert_eq!(ec.check_eq(xor, diff), Verdict::Equal);
            let one = ec.pool.constant(1, w);
            let x1 = ec.pool.add2(x, one);
            let nand = ec.pool.not(and);
            let a = ec.pool.and(vec![x1, nand]);
            let b = ec.pool.and(vec![x, nand]);
            assert_eq!(ec.check_eq(a, b), Verdict::NotEqual);
        }
        assert!(
            ec.stats.solver.solver_resets > 0,
            "tight watermark must force solver rebuilds"
        );
        assert_eq!(ec.stats.sat_equal, 3);
    }

    #[test]
    fn width_mismatch_is_instantly_unequal() {
        let mut ec = EquivChecker::new();
        let a = ec.pool.var(0, 32);
        let b = ec.pool.var(1, 64);
        assert_eq!(ec.check_eq(a, b), Verdict::NotEqual);
    }

    #[test]
    fn oversized_terms_return_unknown() {
        let mut ec = EquivChecker::with_config(EquivConfig {
            max_dag: 4,
            ..Default::default()
        });
        // Two sides that agree on randoms but exceed the DAG cap:
        // (x | y) - (x & y) vs x ^ y again.
        let x = ec.pool.var(0, 16);
        let y = ec.pool.var(1, 16);
        let xor = ec.pool.xor(vec![x, y]);
        let or = ec.pool.or(vec![x, y]);
        let and = ec.pool.and(vec![x, y]);
        let diff = ec.pool.sub(or, and);
        assert_eq!(ec.check_eq(xor, diff), Verdict::Unknown);
    }

    #[test]
    fn memory_pairs_stay_unknown_when_random_agrees() {
        let mut ec = EquivChecker::new();
        let m = ec.pool.mem_var(0);
        let a = ec.pool.var(0, 64);
        let v = ec.pool.var(1, 8);
        let s1 = ec.pool.store(m, a, v);
        // A different store chain writing the same byte via a detour the
        // normalizer can't see: store(store(m,a,v),a,v).
        let s2 = ec.pool.store(s1, a, v);
        // Normalizer folds the same-address overwrite, so s2 == s1.
        assert_eq!(s1, s2);
        // Distinct chains with different addresses are refuted randomly.
        let b = ec.pool.var(2, 64);
        let s3 = ec.pool.store(m, b, v);
        assert_eq!(ec.check_eq(s1, s3), Verdict::NotEqual);
    }
}
