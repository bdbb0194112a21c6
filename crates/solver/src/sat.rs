//! A from-scratch CDCL SAT solver (MiniSat-style).
//!
//! Watched literals, first-UIP clause learning, VSIDS branching with phase
//! saving, and geometric restarts. This is the decision engine under the
//! bit-blaster; it replaces the Z3 backend of the paper's Boogie pipeline
//! for the (quantifier-free, loop-free) queries Esh generates.

/// A propositional variable (0-based).
pub type Var = u32;

/// A literal: variable plus sign.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Lit(u32);

impl Lit {
    /// Positive literal of `v`.
    pub fn pos(v: Var) -> Lit {
        Lit(v << 1)
    }

    /// Negative literal of `v`.
    pub fn neg(v: Var) -> Lit {
        Lit(v << 1 | 1)
    }

    /// The underlying variable.
    pub fn var(self) -> Var {
        self.0 >> 1
    }

    /// True if this is the negated polarity.
    pub fn is_neg(self) -> bool {
        self.0 & 1 == 1
    }

    /// The complementary literal.
    pub fn negate(self) -> Lit {
        Lit(self.0 ^ 1)
    }

    fn code(self) -> usize {
        self.0 as usize
    }
}

/// Result of a [`Solver::solve`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SatResult {
    /// A satisfying assignment exists (readable via [`Solver::model_value`]).
    Sat,
    /// No satisfying assignment exists under the given assumptions.
    Unsat,
    /// The conflict budget was exhausted first.
    Unknown,
}

const UNDEF_CLAUSE: u32 = u32::MAX;

/// The CDCL solver.
#[derive(Debug, Default)]
pub struct Solver {
    num_vars: usize,
    clauses: Vec<Vec<Lit>>,
    watches: Vec<Vec<u32>>,
    assign: Vec<i8>, // 0 undef, 1 true, -1 false (per var)
    phase: Vec<bool>,
    trail: Vec<Lit>,
    trail_lim: Vec<usize>,
    qhead: usize,
    reason: Vec<u32>,
    level: Vec<u32>,
    activity: Vec<f64>,
    var_inc: f64,
    seen: Vec<bool>,
    ok: bool,
    /// Lazy max-heap of `(activity, var)` candidates for branching.
    heap: std::collections::BinaryHeap<(u64, Var)>,
    /// Conflicts encountered in the last `solve` call.
    pub conflicts: u64,
}

fn act_key(a: f64) -> u64 {
    // Activities are non-negative; the bit pattern orders them correctly.
    a.to_bits()
}

impl Solver {
    /// Creates an empty solver.
    pub fn new() -> Solver {
        Solver {
            var_inc: 1.0,
            ok: true,
            ..Solver::default()
        }
    }

    /// Allocates a fresh variable.
    pub fn new_var(&mut self) -> Var {
        let v = self.num_vars as Var;
        self.num_vars += 1;
        self.assign.push(0);
        self.phase.push(false);
        self.reason.push(UNDEF_CLAUSE);
        self.level.push(0);
        self.activity.push(0.0);
        self.seen.push(false);
        self.watches.push(Vec::new());
        self.watches.push(Vec::new());
        self.heap.push((act_key(0.0), v));
        v
    }

    fn value_lit(&self, l: Lit) -> i8 {
        let a = self.assign[l.var() as usize];
        if l.is_neg() {
            -a
        } else {
            a
        }
    }

    /// Adds a clause. Returns `false` if the formula became trivially
    /// unsatisfiable.
    pub fn add_clause(&mut self, mut lits: Vec<Lit>) -> bool {
        if !self.ok {
            return false;
        }
        // A previous `solve` may have left the trail at a decision level
        // (models are read back before any new clause is added); clauses
        // are always attached at the root.
        if !self.trail_lim.is_empty() {
            self.cancel_until(0);
        }
        lits.sort_by_key(|l| l.0);
        lits.dedup();
        // Tautology?
        for w in lits.windows(2) {
            if w[0].var() == w[1].var() {
                return true;
            }
        }
        // Remove root-false literals; detect satisfied clauses.
        lits.retain(|l| self.value_lit(*l) != -1);
        if lits.iter().any(|l| self.value_lit(*l) == 1) {
            return true;
        }
        match lits.len() {
            0 => {
                self.ok = false;
                false
            }
            1 => {
                self.unchecked_enqueue(lits[0], UNDEF_CLAUSE);
                if self.propagate().is_some() {
                    self.ok = false;
                }
                self.ok
            }
            _ => {
                self.attach_clause(lits);
                true
            }
        }
    }

    fn attach_clause(&mut self, lits: Vec<Lit>) -> u32 {
        let idx = self.clauses.len() as u32;
        self.watches[lits[0].negate().code()].push(idx);
        self.watches[lits[1].negate().code()].push(idx);
        self.clauses.push(lits);
        idx
    }

    fn unchecked_enqueue(&mut self, l: Lit, reason: u32) {
        let v = l.var() as usize;
        self.assign[v] = if l.is_neg() { -1 } else { 1 };
        self.phase[v] = !l.is_neg();
        self.reason[v] = reason;
        self.level[v] = self.trail_lim.len() as u32;
        self.trail.push(l);
    }

    /// Unit propagation. Returns a conflicting clause index on conflict.
    fn propagate(&mut self) -> Option<u32> {
        while self.qhead < self.trail.len() {
            let p = self.trail[self.qhead];
            self.qhead += 1;
            // Clauses watching ¬p (p became true ⇒ their watched lit ¬p is
            // now false... by convention `watches[l]` holds clauses to
            // inspect when literal l becomes TRUE and thus its negation
            // (a watched literal) becomes false).
            let mut i = 0;
            let mut ws = std::mem::take(&mut self.watches[p.code()]);
            while i < ws.len() {
                let ci = ws[i];
                let false_lit = p.negate();
                // Ensure the false literal is at position 1.
                {
                    let c = &mut self.clauses[ci as usize];
                    if c[0] == false_lit {
                        c.swap(0, 1);
                    }
                }
                let first = self.clauses[ci as usize][0];
                if self.value_lit(first) == 1 {
                    i += 1;
                    continue;
                }
                // Find a new watch.
                let mut found = false;
                let len = self.clauses[ci as usize].len();
                for k in 2..len {
                    let lk = self.clauses[ci as usize][k];
                    if self.value_lit(lk) != -1 {
                        self.clauses[ci as usize].swap(1, k);
                        let new_watch = self.clauses[ci as usize][1];
                        self.watches[new_watch.negate().code()].push(ci);
                        ws.swap_remove(i);
                        found = true;
                        break;
                    }
                }
                if found {
                    continue;
                }
                // Unit or conflict.
                if self.value_lit(first) == -1 {
                    self.watches[p.code()] = ws;
                    // leave remaining entries; re-add skipped ones
                    return Some(ci);
                }
                self.unchecked_enqueue(first, ci);
                i += 1;
            }
            // Put the buffer back by move: `take` left an empty zero-capacity
            // vec here and nothing pushes to `watches[p]` while processing it
            // (a new watch for ¬p would mean ¬p is unassigned, but p is true),
            // so a move keeps the allocation instead of reallocating.
            self.watches[p.code()] = ws;
        }
        None
    }

    fn bump_var(&mut self, v: Var) {
        self.activity[v as usize] += self.var_inc;
        if self.activity[v as usize] > 1e100 {
            for a in &mut self.activity {
                *a *= 1e-100;
            }
            self.var_inc *= 1e-100;
            self.rebuild_heap();
        }
        self.push_candidate(v);
    }

    /// Pushes `v` under its current activity. Each bump and unassignment
    /// pushes (unbounded, a long search reaches tens of MiB), so past two
    /// entries per variable the heap is rebuilt from the unassigned ones.
    /// Between rescales (which rebuild too) a pop accepts exactly those
    /// variables' current entries, so the branching is unchanged.
    fn push_candidate(&mut self, v: Var) {
        self.heap.push((act_key(self.activity[v as usize]), v));
        if self.heap.len() > 2 * self.num_vars + 64 {
            self.rebuild_heap();
        }
    }

    fn rebuild_heap(&mut self) {
        let live = (0..self.num_vars).filter(|&v| self.assign[v] == 0);
        self.heap = live
            .map(|v| (act_key(self.activity[v]), v as Var))
            .collect();
    }

    /// First-UIP conflict analysis. Returns (learnt clause, backjump level).
    fn analyze(&mut self, conflict: u32) -> (Vec<Lit>, u32) {
        let mut learnt: Vec<Lit> = vec![Lit::pos(0)]; // placeholder for UIP
        let mut counter = 0usize;
        let mut p: Option<Lit> = None;
        let mut index = self.trail.len();
        let mut clause = conflict;
        let cur_level = self.trail_lim.len() as u32;
        loop {
            let lits: Vec<Lit> = self.clauses[clause as usize].clone();
            let skip = usize::from(p.is_some());
            for &q in lits.iter().skip(if p.is_some() && lits[0] == p.unwrap() {
                skip
            } else {
                0
            }) {
                if Some(q) == p {
                    continue;
                }
                let v = q.var() as usize;
                if !self.seen[v] && self.level[v] > 0 {
                    self.seen[v] = true;
                    self.bump_var(q.var());
                    if self.level[v] >= cur_level {
                        counter += 1;
                    } else {
                        learnt.push(q);
                    }
                }
            }
            // Walk the trail backwards to the next marked literal.
            loop {
                index -= 1;
                if self.seen[self.trail[index].var() as usize] {
                    break;
                }
            }
            let pl = self.trail[index];
            self.seen[pl.var() as usize] = false;
            counter -= 1;
            if counter == 0 {
                learnt[0] = pl.negate();
                break;
            }
            p = Some(pl);
            clause = self.reason[pl.var() as usize];
            debug_assert_ne!(clause, UNDEF_CLAUSE);
        }
        for l in &learnt[1..] {
            self.seen[l.var() as usize] = false;
        }
        // Move the highest-level remaining literal to position 1 so the
        // watched-literal invariant survives the backjump.
        let mut backjump = 0;
        let mut max_idx = 1;
        for (i, l) in learnt.iter().enumerate().skip(1) {
            let lv = self.level[l.var() as usize];
            if lv > backjump {
                backjump = lv;
                max_idx = i;
            }
        }
        if learnt.len() > 1 {
            learnt.swap(1, max_idx);
        }
        (learnt, backjump)
    }

    fn cancel_until(&mut self, level: u32) {
        while self.trail_lim.len() as u32 > level {
            let lim = self.trail_lim.pop().expect("non-empty");
            while self.trail.len() > lim {
                let l = self.trail.pop().expect("non-empty");
                let v = l.var();
                self.assign[v as usize] = 0;
                self.reason[v as usize] = UNDEF_CLAUSE;
                self.push_candidate(v);
            }
        }
        self.qhead = self.trail.len();
    }

    fn pick_branch(&mut self) -> Option<Lit> {
        let unassigned = |s: &Self, v: Var| s.assign[v as usize] == 0;
        let mut pick = None;
        while let Some((key, v)) = self.heap.pop() {
            // Assigned variables and stale keys (a fresher entry exists in
            // the heap) are skipped.
            if unassigned(self, v) && key == act_key(self.activity[v as usize]) {
                pick = Some(v);
                break;
            }
        }
        // Heap exhausted: fall back to a scan (covers any bookkeeping gap).
        let v = pick.or_else(|| (0..self.num_vars as Var).find(|&v| unassigned(self, v)))?;
        Some(if self.phase[v as usize] {
            Lit::pos(v)
        } else {
            Lit::neg(v)
        })
    }

    /// Solves under assumptions with a conflict budget.
    pub fn solve_with_budget(&mut self, assumptions: &[Lit], max_conflicts: u64) -> SatResult {
        if !self.ok {
            return SatResult::Unsat;
        }
        self.cancel_until(0);
        self.conflicts = 0;
        loop {
            if let Some(conflict) = self.propagate() {
                self.conflicts += 1;
                if self.conflicts > max_conflicts {
                    self.cancel_until(0);
                    return SatResult::Unknown;
                }
                if self.trail_lim.is_empty() {
                    self.ok = false;
                    return SatResult::Unsat;
                }
                // Conflict below/at the assumption levels means the
                // assumptions themselves are contradictory: report Unsat.
                let (learnt, backjump) = self.analyze(conflict);
                self.cancel_until(backjump);
                let asserting = learnt[0];
                if learnt.len() == 1 {
                    self.cancel_until(0);
                    self.unchecked_enqueue(asserting, UNDEF_CLAUSE);
                } else {
                    let ci = self.attach_clause(learnt);
                    self.unchecked_enqueue(asserting, ci);
                }
                self.var_inc *= 1.05;
                continue;
            }
            // Assumptions first.
            let next_assumption = assumptions
                .iter()
                .find(|a| self.value_lit(**a) == 0)
                .copied();
            if assumptions.iter().any(|a| self.value_lit(*a) == -1) {
                self.cancel_until(0);
                return SatResult::Unsat;
            }
            let Some(d) = next_assumption.or_else(|| self.pick_branch()) else {
                return SatResult::Sat;
            };
            self.trail_lim.push(self.trail.len());
            self.unchecked_enqueue(d, UNDEF_CLAUSE);
        }
    }

    /// Solves under assumptions with the default budget.
    pub fn solve(&mut self, assumptions: &[Lit]) -> SatResult {
        self.solve_with_budget(assumptions, u64::MAX)
    }

    /// The model value of `v` after a `Sat` answer.
    pub fn model_value(&self, v: Var) -> bool {
        self.assign[v as usize] == 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn l(v: Var) -> Lit {
        Lit::pos(v)
    }
    fn nl(v: Var) -> Lit {
        Lit::neg(v)
    }

    #[test]
    fn trivial_sat_and_unsat() {
        let mut s = Solver::new();
        let a = s.new_var();
        assert!(s.add_clause(vec![l(a)]));
        assert_eq!(s.solve(&[]), SatResult::Sat);
        assert!(s.model_value(a));

        let mut s = Solver::new();
        let a = s.new_var();
        assert!(s.add_clause(vec![l(a)]));
        assert!(!s.add_clause(vec![nl(a)]));
        assert_eq!(s.solve(&[]), SatResult::Unsat);
    }

    #[test]
    fn simple_implication_chain() {
        let mut s = Solver::new();
        let vars: Vec<Var> = (0..10).map(|_| s.new_var()).collect();
        for w in vars.windows(2) {
            s.add_clause(vec![nl(w[0]), l(w[1])]); // w0 -> w1
        }
        s.add_clause(vec![l(vars[0])]);
        assert_eq!(s.solve(&[]), SatResult::Sat);
        for v in &vars {
            assert!(s.model_value(*v));
        }
    }

    #[test]
    fn pigeonhole_3_into_2_is_unsat() {
        // 3 pigeons, 2 holes: p[i][j] = pigeon i in hole j.
        let mut s = Solver::new();
        let mut p = [[0 as Var; 2]; 3];
        for row in &mut p {
            for v in row.iter_mut() {
                *v = s.new_var();
            }
        }
        for pi in &p {
            s.add_clause(vec![l(pi[0]), l(pi[1])]);
        }
        for j in 0..2 {
            for (i1, row1) in p.iter().enumerate() {
                for row2 in &p[i1 + 1..] {
                    s.add_clause(vec![nl(row1[j]), nl(row2[j])]);
                }
            }
        }
        assert_eq!(s.solve(&[]), SatResult::Unsat);
    }

    #[test]
    fn assumptions_flip_outcomes() {
        let mut s = Solver::new();
        let a = s.new_var();
        let b = s.new_var();
        s.add_clause(vec![nl(a), l(b)]); // a -> b
        assert_eq!(s.solve(&[l(a), nl(b)]), SatResult::Unsat);
        assert_eq!(s.solve(&[l(a), l(b)]), SatResult::Sat);
        assert_eq!(s.solve(&[nl(a)]), SatResult::Sat);
    }

    #[test]
    fn random_instances_match_brute_force() {
        // Cross-check on random 3-CNF with 12 vars.
        let mut seed = 0x12345u64;
        let mut next = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        for _case in 0..60 {
            let nv = 10usize;
            let nc = 38 + (next() % 10) as usize;
            let mut clauses: Vec<Vec<(usize, bool)>> = Vec::new();
            for _ in 0..nc {
                let mut cl = Vec::new();
                for _ in 0..3 {
                    cl.push(((next() % nv as u64) as usize, next() & 1 == 1));
                }
                clauses.push(cl);
            }
            // Brute force.
            let mut brute_sat = false;
            'outer: for m in 0u32..(1 << nv) {
                for cl in &clauses {
                    if !cl.iter().any(|(v, neg)| ((m >> v) & 1 == 1) != *neg) {
                        continue 'outer;
                    }
                }
                brute_sat = true;
                break;
            }
            // CDCL.
            let mut s = Solver::new();
            let vars: Vec<Var> = (0..nv).map(|_| s.new_var()).collect();
            let mut root_unsat = false;
            for cl in &clauses {
                let lits: Vec<Lit> = cl
                    .iter()
                    .map(|(v, neg)| if *neg { nl(vars[*v]) } else { l(vars[*v]) })
                    .collect();
                if !s.add_clause(lits) {
                    root_unsat = true;
                    break;
                }
            }
            let got = if root_unsat {
                SatResult::Unsat
            } else {
                s.solve(&[])
            };
            let want = if brute_sat {
                SatResult::Sat
            } else {
                SatResult::Unsat
            };
            assert_eq!(got, want, "disagreement on case with {nc} clauses");
            // When SAT, the model must actually satisfy the formula.
            if got == SatResult::Sat {
                for cl in &clauses {
                    assert!(
                        cl.iter().any(|(v, neg)| s.model_value(vars[*v]) != *neg),
                        "model does not satisfy clause"
                    );
                }
            }
        }
    }

    #[test]
    fn budget_reports_unknown() {
        // A hard-ish pigeonhole with a tiny budget.
        let mut s = Solver::new();
        let n = 7;
        let mut p = vec![vec![0 as Var; n - 1]; n];
        for row in p.iter_mut() {
            for x in row.iter_mut() {
                *x = s.new_var();
            }
        }
        for row in &p {
            s.add_clause(row.iter().map(|v| l(*v)).collect());
        }
        for j in 0..n - 1 {
            for (i1, row1) in p.iter().enumerate() {
                for row2 in &p[i1 + 1..] {
                    s.add_clause(vec![nl(row1[j]), nl(row2[j])]);
                }
            }
        }
        assert_eq!(s.solve_with_budget(&[], 10), SatResult::Unknown);
    }

    #[test]
    fn branching_heap_stays_bounded_and_keeps_the_search() {
        // Seeded 3-CNF at the satisfiability threshold (100 vars, 426
        // clauses). The pinned outcomes and conflict counts are those of a
        // heap that never drops an entry: dropping only entries no pop
        // would accept must not move a single decision.
        for (seed, want, conflicts) in [
            (2u64, SatResult::Unsat, 509),
            (3, SatResult::Sat, 222),
            (6, SatResult::Unsat, 579),
        ] {
            let mut x = 0x9e37_79b9_7f4a_7c15u64 ^ seed;
            let mut next = move || {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x
            };
            let mut s = Solver::new();
            let vars: Vec<Var> = (0..100).map(|_| s.new_var()).collect();
            for _ in 0..426 {
                let cl = (0..3)
                    .map(|_| {
                        let v = vars[(next() % 100) as usize];
                        if next() & 1 == 1 {
                            nl(v)
                        } else {
                            l(v)
                        }
                    })
                    .collect();
                s.add_clause(cl);
            }
            assert_eq!(s.solve_with_budget(&[], 4_000), want, "seed {seed}");
            assert_eq!(s.conflicts, conflicts, "seed {seed}");
            assert!(s.heap.len() <= 2 * s.num_vars + 64, "seed {seed}");
        }
    }
}
