//! The index's load-bearing pin: an engine opened from a sharded
//! index is **indistinguishable** from the resident engine it was written
//! from — the engine `add_target` built, which is exactly what
//! `write_sharded` serialises. Not just same ranked names, but
//! byte-identical scores AND identical VCP-cache hit/miss counters,
//! whatever the query sequence and whatever the shard granularity.
//!
//! The counter half holds by construction: every persisted verdict is in
//! the cache from the moment the index opens, and a cache lookup never
//! touches a shard, so the counters cannot depend on which shards or
//! records a query decodes. These properties pin it across shard sizes
//! 1..4 and arbitrary query subsets with repetition — under per-record
//! demand decoding, where a shard opens only to decode a record a query
//! needs.

use esh_asm::Procedure;
use esh_cc::{Compiler, Vendor, VendorVersion};
use esh_core::{EngineConfig, PrefilterConfig, QueryScores, SimilarityEngine};
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
    build_engine_with(corpus, PrefilterConfig::default())
}

fn build_engine_with(corpus: &[(String, Procedure)], sketch: PrefilterConfig) -> SimilarityEngine {
    let mut engine = SimilarityEngine::new(EngineConfig {
        threads: 2,
        sketch,
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
    /// intact: queries answered from persisted verdicts count as hits on
    /// the lazy engine exactly as they do on the warmed resident one
    /// (counted from the moment the index was written). The verdicts load
    /// with `core.bin`, so under configs whose warm pass needs no probe
    /// sketch — the sketch tier off, and `lsh_only` — a pass whose cells
    /// are all cached loads no shard, decodes no record and fans out to
    /// none.
    #[test]
    fn persisted_verdicts_replay_as_hits_without_opening_a_shard(
        targets_per_shard in 1usize..4,
    ) {
        let (corpus, queries) = corpus_and_queries();
        let off = PrefilterConfig {
            enabled: false,
            ..PrefilterConfig::default()
        };
        for (tag, sketch) in [("off", off), ("lsh", PrefilterConfig::lsh_only())] {
            let warmed = build_engine_with(&corpus, sketch);
            for q in &queries {
                warmed.query(q);
            }
            let dir = scratch(&format!("warm-{tag}-{targets_per_shard}"));
            std::fs::remove_dir_all(&dir).ok();
            esh_index::write_sharded(&warmed, &dir, targets_per_shard).unwrap();
            let sharded = esh_index::open_sharded(&dir).unwrap();
            let (h0, m0) = counters(&warmed);

            for (i, q) in queries.iter().enumerate() {
                let a = warmed.query(q);
                let b = sharded.query(q);
                assert_scores_identical(&a, &b, &format!("{tag}: warm query {i}"));
            }
            let (h1, m1) = counters(&warmed);
            let (hits, misses) = counters(&sharded);
            prop_assert_eq!((h1 - h0, m1 - m0), (hits, misses), "{}", tag);
            prop_assert!(
                hits > 0,
                "{}: warmed cache produced no hits at all — the fixture is too weak",
                tag
            );
            prop_assert_eq!(misses, 0, "{}: the warm pass missed the cache", tag);
            let s = sharded.shard_stats();
            prop_assert_eq!(
                (s.shards_loaded, s.classes_decoded_total, s.fanout_total),
                (0, 0, 0),
                "{}: an all-cached pass read a shard: {:?}",
                tag,
                s
            );
            std::fs::remove_dir_all(&dir).ok();
        }
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
/// ([`esh_core::PrefilterConfig::lsh_only`]) the ladder settles every LSH
/// non-candidate from the resident candidate mask, so with one target
/// per shard each query leaves some shard unopened — and the sharded
/// engine still does exactly the resident engine's work. After every
/// query of a cold pass and a warm one, scores match bit for bit, and so
/// do the cache hits and misses and every prefilter counter (refined
/// pairs included). A refine window of four targets (twice
/// `refine_top_k`) reads the unpriced non-candidate cells of half the
/// corpus; a window over the whole corpus would open every shard that
/// holds a cell passing the cheap filters.
#[test]
fn lsh_profile_matches_resident_counters_and_leaves_shards_unopened() {
    let (corpus, queries) = corpus_and_queries();
    let sketch = PrefilterConfig {
        refine_top_k: 2,
        ..PrefilterConfig::lsh_only()
    };
    assert_eq!(corpus.len(), 4 * sketch.refine_top_k);
    let resident = build_engine_with(&corpus, sketch);
    let dir = scratch("lsh-profile");
    std::fs::remove_dir_all(&dir).ok();
    esh_index::write_sharded(&resident, &dir, 1).unwrap();
    let sharded = esh_index::open_sharded(&dir).unwrap();
    let shards = sharded.shard_stats().shards_total;
    assert!(shards >= 4, "fixture too small: {shards} shards");
    for pass in ["cold", "warm"] {
        for (i, q) in queries.iter().enumerate() {
            let what = format!("lsh-profile {pass} query {i}");
            let fanout = sharded.shard_stats().fanout_total;
            assert_scores_identical(&resident.query(q), &sharded.query(q), &what);
            assert_eq!(counters(&resident), counters(&sharded), "{what}: cache");
            assert_eq!(
                resident.prefilter_stats(),
                sharded.prefilter_stats(),
                "{what}: prefilter"
            );
            let opened = sharded.shard_stats().fanout_total - fanout;
            assert!(opened < shards, "{what}: opened all {shards} shards");
        }
    }
    let stats = sharded.shard_stats();
    let items = 2 * queries.len() as u64;
    assert_eq!(stats.pruned_total, items * shards - stats.fanout_total);
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
