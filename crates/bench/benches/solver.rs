//! Micro-benchmarks of the equivalence engine: normalization, random
//! refutation and SAT decisions — the per-query costs behind §5.5's
//! performance discussion.

use criterion::{criterion_group, criterion_main, Criterion};
use esh_solver::equiv::{EquivChecker, Verdict};
use esh_solver::eval::{eval, Assignment};
use esh_solver::TermPool;
use std::hint::black_box;

fn bench_normalization(c: &mut Criterion) {
    c.bench_function("solver/normalize_linear_combination", |b| {
        b.iter(|| {
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
            black_box(acc)
        })
    });
}

fn bench_random_refutation(c: &mut Criterion) {
    let mut p = TermPool::new();
    let x = p.var(0, 64);
    let y = p.var(1, 64);
    let a = p.xor(vec![x, y]);
    let one = p.constant(1, 64);
    let xp = p.add2(x, one);
    let b = p.xor(vec![xp, y]);
    c.bench_function("solver/random_refute", |b_| {
        b_.iter(|| {
            let asn = Assignment::random(black_box(7));
            black_box(eval(&p, a, &asn) != eval(&p, b, &asn))
        })
    });
}

fn bench_sat_identity(c: &mut Criterion) {
    c.bench_function("solver/sat_prove_xor_identity_16bit", |b| {
        b.iter(|| {
            let mut ec = EquivChecker::new();
            let x = ec.pool.var(0, 16);
            let y = ec.pool.var(1, 16);
            let xor = ec.pool.xor(vec![x, y]);
            let or = ec.pool.or(vec![x, y]);
            let and = ec.pool.and(vec![x, y]);
            let diff = ec.pool.sub(or, and);
            assert_eq!(ec.check_eq(xor, diff), Verdict::Equal);
        })
    });
}

fn bench_sat_mul(c: &mut Criterion) {
    c.bench_function("solver/sat_mul_strength_reduction_12bit", |b| {
        b.iter(|| {
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
        })
    });
}

criterion_group!(
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_normalization, bench_random_refutation, bench_sat_identity, bench_sat_mul
);
criterion_main!(benches);
