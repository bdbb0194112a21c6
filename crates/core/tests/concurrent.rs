//! Concurrency contract of [`SimilarityEngine::query`]: one shared
//! read-only engine serving many threads — the invariant the `esh serve`
//! daemon's worker pool relies on.
//!
//! Two properties are checked: results are deterministic (every thread
//! sees scores bit-identical to a sequential baseline, no matter how the
//! threads interleave on the shared VCP cache and session pool), and the
//! cache hit/miss and probe-sketch counters stay consistent under
//! contention (every lookup is counted exactly once, so `hits + misses`
//! equals the known per-query lookup count times the number of queries,
//! and every probe sketch is counted once, when it fills its slot).

use std::collections::HashSet;
use std::sync::Arc;

use esh_cc::{Compiler, Vendor, VendorVersion};
use esh_core::{EngineConfig, QueryScores, SimilarityEngine};
use esh_minic::demo;
use esh_strands::{extract_proc_strands, lift_strand, structural_hash};

fn targets() -> Vec<(String, esh_asm::Procedure)> {
    let clang = Compiler::new(Vendor::Clang, VendorVersion::new(3, 5));
    let icc = Compiler::new(Vendor::Icc, VendorVersion::new(15, 0));
    [
        demo::saturating_sum(),
        demo::wget_like(),
        demo::heartbleed_like(),
    ]
    .iter()
    .enumerate()
    .flat_map(|(i, f)| {
        [
            (format!("clang:{i}"), clang.compile_function(f)),
            (format!("icc:{i}"), icc.compile_function(f)),
        ]
    })
    .collect()
}

fn build_engine() -> SimilarityEngine {
    let mut engine = SimilarityEngine::new(EngineConfig {
        threads: 2,
        ..EngineConfig::default()
    });
    for (name, p) in targets() {
        engine.add_target(name, &p);
    }
    engine
}

/// Structural hashes of the strands the engine keeps for `p` (the
/// identity its strand classes and query strands dedup on).
fn strand_hashes(p: &esh_asm::Procedure) -> HashSet<u64> {
    let min_vars = EngineConfig::default().vcp.min_strand_vars;
    extract_proc_strands(p)
        .iter()
        .map(lift_strand)
        .filter(|lifted| lifted.vars.len() >= min_vars)
        .map(|lifted| structural_hash(&lifted))
        .collect()
}

fn queries() -> Vec<esh_asm::Procedure> {
    let gcc = Compiler::new(Vendor::Gcc, VendorVersion::new(4, 9));
    vec![
        gcc.compile_function(&demo::saturating_sum()),
        gcc.compile_function(&demo::wget_like()),
        gcc.compile_function(&demo::heartbleed_like()),
    ]
}

fn assert_bit_identical(a: &QueryScores, b: &QueryScores, ctx: &str) {
    assert_eq!(a.scores.len(), b.scores.len(), "{ctx}");
    for (x, y) in a.scores.iter().zip(&b.scores) {
        assert_eq!(x.target, y.target, "{ctx}: {}", x.name);
        assert_eq!(x.ges.to_bits(), y.ges.to_bits(), "{ctx}: {}", x.name);
        assert_eq!(x.s_log.to_bits(), y.s_log.to_bits(), "{ctx}: {}", x.name);
        assert_eq!(x.s_vcp.to_bits(), y.s_vcp.to_bits(), "{ctx}: {}", x.name);
    }
}

#[test]
fn concurrent_queries_match_sequential_baseline() {
    let procs = queries();

    // Sequential baselines on a private engine.
    let baseline_engine = build_engine();
    let baselines: Vec<QueryScores> = procs.iter().map(|p| baseline_engine.query(p)).collect();

    // The same queries, each run from several threads at once against one
    // shared engine, racing on the VCP cache and the session pool.
    let shared = Arc::new(build_engine());
    const REPEATS: usize = 3;
    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for (qi, p) in procs.iter().enumerate() {
            for rep in 0..REPEATS {
                let engine = Arc::clone(&shared);
                handles.push(scope.spawn(move || (qi, rep, engine.query(p))));
            }
        }
        for h in handles {
            let (qi, rep, scores) = h.join().expect("query thread panicked");
            assert_bit_identical(&baselines[qi], &scores, &format!("query {qi} repeat {rep}"));
        }
    });
}

#[test]
fn cache_counters_are_exact_under_contention() {
    let procs = queries();

    // Per-query lookup counts are deterministic: measure them cold, one
    // query per fresh engine (hits + misses = lookups reaching the cache).
    let lookups_per_query: Vec<u64> = procs
        .iter()
        .map(|p| {
            let engine = build_engine();
            engine.query(p);
            let s = engine.cache_stats();
            assert_eq!(s.hits, 0, "a lone cold query cannot hit");
            assert!(s.misses > 0, "a cold query must populate the cache");
            s.hits + s.misses
        })
        .collect();

    let shared = Arc::new(build_engine());
    const REPEATS: usize = 4;
    std::thread::scope(|scope| {
        let handles: Vec<_> = procs
            .iter()
            .flat_map(|p| {
                let shared = &shared;
                (0..REPEATS).map(move |_| {
                    let engine = Arc::clone(shared);
                    scope.spawn(move || {
                        engine.query(p);
                    })
                })
            })
            .collect();
        for h in handles {
            h.join().expect("query thread panicked");
        }
    });

    let stats = shared.cache_stats();
    let expected: u64 = lookups_per_query.iter().sum::<u64>() * REPEATS as u64;
    assert_eq!(
        stats.hits + stats.misses,
        expected,
        "every cache lookup must be counted exactly once under contention"
    );
    // Racing threads may both miss the same key before either inserts, so
    // misses can exceed distinct entries — but never the reverse once the
    // refine-top-K pass's uncounted inserts (tracked by `refined_pairs`)
    // are added back — and the cache must have been exercised hard enough
    // to produce real hits.
    let refined = shared.prefilter_stats().refined_pairs;
    assert!(stats.entries as u64 <= stats.misses + refined);
    assert!(stats.hits > 0, "repeated queries must hit the shared cache");

    // Probe sketches count when they fill their slot, so racing workers
    // that both compute one still count it once: the shared engine
    // matches one sequential engine over the same queries.
    let sequential = build_engine();
    for p in &procs {
        for _ in 0..REPEATS {
            sequential.query(p);
        }
    }
    let sketched = shared.prefilter_stats().probe_sketches;
    assert_eq!(sketched, sequential.prefilter_stats().probe_sketches);
    assert!(sketched > 0, "the default window must probe something");
    // At most one per corpus class, plus one per foreign query strand
    // (no corpus class) per query, each query being its own batch.
    let classes: HashSet<u64> = targets()
        .iter()
        .flat_map(|(_, p)| strand_hashes(p))
        .collect();
    assert_eq!(classes.len(), shared.class_count());
    let foreign: usize = procs
        .iter()
        .map(|p| strand_hashes(p).difference(&classes).count())
        .sum();
    assert!(
        sketched <= (classes.len() + foreign * REPEATS) as u64,
        "{sketched} probe sketches for {} classes and {foreign} foreign strands",
        classes.len()
    );
}
