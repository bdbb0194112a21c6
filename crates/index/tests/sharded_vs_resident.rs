//! The index's load-bearing pin: an engine opened from a sharded
//! index is **indistinguishable** from the resident engine it was written
//! from — the engine `add_target` built, which is exactly what
//! `write_sharded` serialises. Not just same ranked names, but
//! byte-identical scores AND identical VCP-cache hit/miss counters,
//! whatever the query sequence and whatever the shard granularity.
//!
//! The counter half is the subtle one. A lazily backed engine inserts
//! each shard's persisted cache segment at shard-open time; if any
//! counted lookup could run before the owning shard's segment was
//! resident, a persisted entry would be re-counted as a miss and the
//! counters would drift. The engine's open-before-lookup rule is exactly
//! what this property exercises, across shard sizes 1..4 and arbitrary
//! query subsets with repetition — under per-record demand decoding,
//! where a touched shard decodes only the classes a query prices.

use esh_asm::Procedure;
use esh_cc::{Compiler, Vendor, VendorVersion};
use esh_core::{EngineConfig, QueryScores, SimilarityEngine};
use esh_index::EshxOpenOptions;
use esh_minic::demo;
use proptest::prelude::*;

fn corpus_and_queries() -> (Vec<(String, Procedure)>, Vec<Procedure>) {
    let gcc = Compiler::new(Vendor::Gcc, VendorVersion::new(4, 9));
    let clang = Compiler::new(Vendor::Clang, VendorVersion::new(3, 5));
    let funcs = demo::cve_functions();
    let corpus = funcs
        .iter()
        .map(|(name, f)| (format!("t-{name}"), clang.compile_function(f)))
        .collect();
    let queries = funcs
        .iter()
        .take(4)
        .map(|(_, f)| gcc.compile_function(f))
        .collect();
    (corpus, queries)
}

fn build_engine(corpus: &[(String, Procedure)]) -> SimilarityEngine {
    let mut engine = SimilarityEngine::new(EngineConfig {
        threads: 2,
        ..EngineConfig::default()
    });
    for (name, p) in corpus {
        engine.add_target(name.clone(), p);
    }
    engine
}

fn assert_scores_identical(a: &QueryScores, b: &QueryScores, what: &str) {
    assert_eq!(a.scores.len(), b.scores.len(), "{what}: score rows");
    for (x, y) in a.scores.iter().zip(&b.scores) {
        assert_eq!(x.target, y.target, "{what}: target order");
        assert_eq!(x.ges.to_bits(), y.ges.to_bits(), "{what}: GES {}", x.name);
        assert_eq!(
            x.s_log.to_bits(),
            y.s_log.to_bits(),
            "{what}: S-LOG {}",
            x.name
        );
        assert_eq!(
            x.s_vcp.to_bits(),
            y.s_vcp.to_bits(),
            "{what}: S-VCP {}",
            x.name
        );
    }
}

fn scratch(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("esh-sharded-prop-{tag}-{}", std::process::id()))
}

/// `(hits, misses)` of an engine's VCP cache.
fn counters(engine: &SimilarityEngine) -> (u64, u64) {
    let s = engine.cache_stats();
    (s.hits, s.misses)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// For any shard granularity and any query sequence (with repeats —
    /// repeats are what make cache hits happen), the sharded engine's
    /// ranked responses are byte-identical to the resident engine's, and
    /// so are the hit/miss counters after every single query.
    #[test]
    fn sharded_engine_matches_resident_engine_bitwise_with_identical_counters(
        targets_per_shard in 1usize..5,
        picks in prop::collection::vec(0usize..4, 1..6),
    ) {
        let (corpus, queries) = corpus_and_queries();
        let resident = build_engine(&corpus);
        let dir = scratch(&format!("{targets_per_shard}-{}", picks.len()));
        std::fs::remove_dir_all(&dir).ok();
        esh_index::write_sharded(&resident, &dir, targets_per_shard).unwrap();
        let sharded = esh_index::open_sharded(&dir).unwrap();

        for (step, &i) in picks.iter().enumerate() {
            let a = resident.query(&queries[i]);
            let b = sharded.query(&queries[i]);
            assert_scores_identical(&a, &b, &format!("step {step} query {i}"));
            prop_assert_eq!(
                counters(&resident),
                counters(&sharded),
                "counters diverged after step {} (query {}, shard size {})",
                step, i, targets_per_shard
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Warmed caches survive the round trip with the counter contract
    /// intact: queries answered from persisted cache segments count as
    /// hits on the lazy engine exactly as they do on the warmed resident
    /// one (counted from the moment the index was written).
    #[test]
    fn persisted_cache_segments_replay_as_hits(
        targets_per_shard in 1usize..4,
    ) {
        let (corpus, queries) = corpus_and_queries();
        let warmed = build_engine(&corpus);
        for q in &queries {
            warmed.query(q);
        }
        let dir = scratch(&format!("warm-{targets_per_shard}"));
        std::fs::remove_dir_all(&dir).ok();
        esh_index::write_sharded(&warmed, &dir, targets_per_shard).unwrap();
        let sharded = esh_index::open_sharded(&dir).unwrap();
        let (h0, m0) = counters(&warmed);

        for (i, q) in queries.iter().enumerate() {
            let a = warmed.query(q);
            let b = sharded.query(q);
            assert_scores_identical(&a, &b, &format!("warm query {i}"));
        }
        let (h1, m1) = counters(&warmed);
        let (hits, misses) = counters(&sharded);
        prop_assert_eq!((h1 - h0, m1 - m0), (hits, misses));
        prop_assert!(
            hits > 0,
            "warmed cache produced no hits at all — the fixture is too weak"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Sketch-band shard pruning may only skip work that contributes
    /// nothing: for any shard granularity and query sequence, the pruned
    /// engine's rankings, H0 statistics (already folded into the scores)
    /// and VCP cache counters are byte-identical to the unpruned
    /// engine's after every step.
    #[test]
    fn pruned_fanout_is_bitwise_identical_to_full_fanout(
        targets_per_shard in 1usize..5,
        picks in prop::collection::vec(0usize..4, 1..6),
    ) {
        let (corpus, queries) = corpus_and_queries();
        let built = build_engine(&corpus);
        let dir = scratch(&format!("prune-{targets_per_shard}-{}", picks.len()));
        std::fs::remove_dir_all(&dir).ok();
        esh_index::write_sharded(&built, &dir, targets_per_shard).unwrap();
        drop(built);

        let full = esh_index::open_sharded_with(
            &dir,
            EshxOpenOptions { prune: false },
        )
        .unwrap();
        let pruned = esh_index::open_sharded(&dir).unwrap();

        for (step, &i) in picks.iter().enumerate() {
            let a = full.query(&queries[i]);
            let b = pruned.query(&queries[i]);
            assert_scores_identical(&a, &b, &format!("prune step {step} query {i}"));
            prop_assert_eq!(
                counters(&full),
                counters(&pruned),
                "cache counters diverged after step {} (query {}, shard size {})",
                step, i, targets_per_shard
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A memory-bounded engine (budget ≈ two shards) answers any query
    /// sequence bitwise-identically to an unbounded engine, with cache
    /// counters unchanged — eviction plus reload must be invisible to
    /// everything except the residency gauges.
    #[test]
    fn two_shard_budget_matches_unbounded_engine_bitwise(
        targets_per_shard in 1usize..4,
        picks in prop::collection::vec(0usize..4, 1..8),
    ) {
        let (corpus, queries) = corpus_and_queries();
        let built = build_engine(&corpus);
        let dir = scratch(&format!("budget-{targets_per_shard}-{}", picks.len()));
        std::fs::remove_dir_all(&dir).ok();
        esh_index::write_sharded(&built, &dir, targets_per_shard).unwrap();
        drop(built);

        let budget = esh_index::read_manifest(&dir).unwrap().largest_shard_bytes * 2;
        let unbounded = esh_index::open_sharded(&dir).unwrap();
        let budgeted = esh_index::open_sharded(&dir).unwrap();
        budgeted.set_shard_budget(budget);

        for (step, &i) in picks.iter().enumerate() {
            let a = unbounded.query(&queries[i]);
            let b = budgeted.query(&queries[i]);
            assert_scores_identical(&a, &b, &format!("budget step {step} query {i}"));
            prop_assert_eq!(
                counters(&unbounded),
                counters(&budgeted),
                "cache counters diverged after step {} (query {}, shard size {})",
                step, i, targets_per_shard
            );
            let s = budgeted.shard_stats();
            prop_assert!(
                s.resident_bytes <= budget,
                "settled residency {} exceeds budget {} after step {}",
                s.resident_bytes, budget, step
            );
            prop_assert!(
                s.resident_bytes_peak <= budget,
                "peak residency {} exceeds budget {} after step {}",
                s.resident_bytes_peak, budget, step
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// Under the scale tier's pure-LSH profile
/// ([`esh_core::PrefilterConfig::lsh_only`]) with one target per shard,
/// shards none of whose classes band-collide with the query are provably
/// silent — at least one shard must actually be skipped, the pruned
/// counter must say so, and every score must stay byte-identical to an
/// engine opened with pruning disabled.
///
/// The refine window (twice `refine_top_k`) covers the whole corpus, so
/// refine reads every cell of every skipped shard — cells the matrix
/// pass left unpriced, which refine filters and bounds itself. Its work
/// must match the full fan-out's exactly: cache counters, refined pairs
/// and shard fan-out, after every query of a cold pass and a warm one.
#[test]
fn pruning_skips_shards_under_the_lsh_profile_with_identical_scores() {
    use esh_core::PrefilterConfig;
    let (corpus, queries) = corpus_and_queries();
    assert!(corpus.len() <= 2 * PrefilterConfig::lsh_only().refine_top_k);
    let mut built = SimilarityEngine::new(EngineConfig {
        threads: 2,
        sketch: PrefilterConfig::lsh_only(),
        ..EngineConfig::default()
    });
    for (name, p) in &corpus {
        built.add_target(name.clone(), p);
    }
    let dir = scratch("prune-gate");
    std::fs::remove_dir_all(&dir).ok();
    esh_index::write_sharded(&built, &dir, 1).unwrap();
    drop(built);

    let full = esh_index::open_sharded_with(&dir, EshxOpenOptions { prune: false }).unwrap();
    let pruned = esh_index::open_sharded(&dir).unwrap();
    let work = |e: &SimilarityEngine| {
        let p = e.prefilter_stats();
        let (hits, misses) = counters(e);
        (
            hits,
            misses,
            p.refined_pairs,
            p.refine_passes,
            e.shard_stats().fanout_total,
        )
    };
    for pass in ["cold", "warm"] {
        for (i, q) in queries.iter().enumerate() {
            let a = full.query(q);
            let b = pruned.query(q);
            let what = format!("lsh-profile {pass} query {i}");
            assert_scores_identical(&a, &b, &what);
            assert_eq!(work(&full), work(&pruned), "{what}: work diverged");
        }
    }
    assert_eq!(
        full.shard_stats().pruned_total,
        0,
        "prune:false must not skip"
    );
    let stats = pruned.shard_stats();
    assert!(stats.shards_total >= 4, "fixture too small: {stats:?}");
    assert!(
        stats.pruned_total > 0,
        "no shard was ever pruned across {} queries: {stats:?}",
        queries.len()
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// Tight budget (one shard) across queries touching several shards:
/// evictions must actually happen, the loaded gauge must stay consistent
/// (loads − evictions), and scores must still match the resident engine.
#[test]
fn tight_budget_evicts_and_still_scores_correctly() {
    let (corpus, queries) = corpus_and_queries();
    let resident = build_engine(&corpus);
    let dir = scratch("evict-gate");
    std::fs::remove_dir_all(&dir).ok();
    esh_index::write_sharded(&resident, &dir, 1).unwrap();

    let budget = esh_index::read_manifest(&dir).unwrap().largest_shard_bytes;
    let budgeted = esh_index::open_sharded(&dir).unwrap();
    budgeted.set_shard_budget(budget);

    for (i, q) in queries.iter().enumerate() {
        let a = resident.query(q);
        let b = budgeted.query(q);
        assert_scores_identical(&a, &b, &format!("tight-budget query {i}"));
    }
    let s = budgeted.shard_stats();
    assert!(
        s.evicted_total > 0,
        "a one-shard budget never evicted: {s:?}"
    );
    assert!(s.resident_bytes <= budget, "settled above budget: {s:?}");
    assert!(
        s.shards_loaded < s.shards_total,
        "loaded gauge ignores evictions: {s:?}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// Probe sketches live on their strand class, so they survive shard
/// eviction: under a one-shard budget, a repeat of the same queries finds
/// every cell in the VCP cache and every probed class's sketch in its
/// slot, and decodes no class record at all — while scoring bit-identically
/// to the first pass and to the resident engine.
#[test]
fn repeat_pass_under_one_shard_budget_decodes_nothing() {
    let gcc = Compiler::new(Vendor::Gcc, VendorVersion::new(4, 9));
    let mut resident = SimilarityEngine::new(EngineConfig {
        threads: 1,
        ..EngineConfig::default()
    });
    for vendor in [
        Compiler::new(Vendor::Clang, VendorVersion::new(3, 5)),
        Compiler::new(Vendor::Icc, VendorVersion::new(15, 0)),
    ] {
        for (name, f) in demo::cve_functions() {
            resident.add_target(format!("{name}-{vendor:?}"), &vendor.compile_function(&f));
        }
    }
    let queries: Vec<Procedure> = demo::cve_functions()
        .iter()
        .take(4)
        .map(|(_, f)| gcc.compile_function(f))
        .collect();
    let dir = scratch("repeat-budget");
    std::fs::remove_dir_all(&dir).ok();
    esh_index::write_sharded(&resident, &dir, 1).unwrap();

    // The reopened engine keeps the recorded `threads: 1`.
    let budget = esh_index::read_manifest(&dir).unwrap().largest_shard_bytes;
    let budgeted = esh_index::open_sharded(&dir).unwrap();
    budgeted.set_shard_budget(budget);

    let first: Vec<QueryScores> = queries.iter().map(|q| budgeted.query(q)).collect();
    let decoded = budgeted.shard_stats().classes_decoded_total;
    assert!(decoded > 0, "the first pass must decode class records");
    for (i, q) in queries.iter().enumerate() {
        let again = budgeted.query(q);
        assert_scores_identical(&first[i], &again, &format!("repeat query {i}"));
        assert_scores_identical(&resident.query(q), &again, &format!("resident query {i}"));
    }
    let s = budgeted.shard_stats();
    assert_eq!(
        s.classes_decoded_total, decoded,
        "the repeat pass decoded class records: {s:?}"
    );
    assert!(
        s.evicted_total > 0,
        "a one-shard budget never evicted: {s:?}"
    );
    std::fs::remove_dir_all(&dir).ok();
}
