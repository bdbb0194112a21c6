//! Micro-benchmarks of the equivalence engine: normalization, random
//! refutation and SAT decisions — the per-query costs behind §5.5's
//! performance discussion.
//!
//! `cargo bench -p esh-solver --bench solver` runs each body once
//! untimed, then [`SAMPLES`] timed runs, and prints one
//! `bench <name>: mean … min … max … (N samples)` line per bench.

use esh_solver::equiv::{EquivChecker, Verdict};
use esh_solver::eval::{eval, Assignment};
use esh_solver::TermPool;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Timed runs per bench, after one untimed warm-up run.
const SAMPLES: usize = 20;

/// Times `body` and prints its mean, min and max wall-clock run time.
fn bench<O>(name: &str, mut body: impl FnMut() -> O) {
    black_box(body());
    let samples: Vec<Duration> = (0..SAMPLES)
        .map(|_| {
            let start = Instant::now();
            black_box(body());
            start.elapsed()
        })
        .collect();
    let mean = samples.iter().sum::<Duration>() / SAMPLES as u32;
    let min = samples.iter().min().copied().unwrap_or_default();
    let max = samples.iter().max().copied().unwrap_or_default();
    println!("bench {name}: mean {mean:?} min {min:?} max {max:?} ({SAMPLES} samples)");
}

fn bench_normalization() {
    bench("solver/normalize_linear_combination", || {
        let mut p = TermPool::new();
        let x = p.var(0, 64);
        let y = p.var(1, 64);
        let five = p.constant(5, 64);
        let mut acc = p.mul(vec![five, x]);
        for k in 1..20i64 {
            let ck = p.constant(k as u64, 64);
            let t = p.mul(vec![ck, y]);
            acc = p.add2(acc, t);
        }
        acc
    });
}

fn bench_random_refutation() {
    let mut p = TermPool::new();
    let x = p.var(0, 64);
    let y = p.var(1, 64);
    let a = p.xor(vec![x, y]);
    let one = p.constant(1, 64);
    let xp = p.add2(x, one);
    let b = p.xor(vec![xp, y]);
    bench("solver/random_refute", || {
        let asn = Assignment::random(black_box(7));
        eval(&p, a, &asn) != eval(&p, b, &asn)
    });
}

fn bench_sat_identity() {
    bench("solver/sat_prove_xor_identity_16bit", || {
        let mut ec = EquivChecker::new();
        let x = ec.pool.var(0, 16);
        let y = ec.pool.var(1, 16);
        let xor = ec.pool.xor(vec![x, y]);
        let or = ec.pool.or(vec![x, y]);
        let and = ec.pool.and(vec![x, y]);
        let diff = ec.pool.sub(or, and);
        assert_eq!(ec.check_eq(xor, diff), Verdict::Equal);
    });
}

fn bench_sat_mul() {
    bench("solver/sat_mul_strength_reduction_12bit", || {
        let mut ec = EquivChecker::new();
        let x = ec.pool.var(0, 12);
        let y = ec.pool.var(1, 12);
        // (x*y) & 1 == (x & 1) * (y & 1): forces real multiplier blasting.
        let one = ec.pool.constant(1, 12);
        let xy = ec.pool.mul(vec![x, y]);
        let lhs = ec.pool.and(vec![xy, one]);
        let xa = ec.pool.and(vec![x, one]);
        let ya = ec.pool.and(vec![y, one]);
        let rhs = ec.pool.mul(vec![xa, ya]);
        assert_eq!(ec.check_eq(lhs, rhs), Verdict::Equal);
    });
}

fn main() {
    bench_normalization();
    bench_random_refutation();
    bench_sat_identity();
    bench_sat_mul();
}
