//! Batched-query contracts: `query_batch` must be invisible in results.
//!
//! The serving layer coalesces concurrent requests into one shared engine
//! pass, so everything it serves rests on three pins exercised here:
//! batched scores are byte-identical to sequential `query` (whatever the
//! batch composition or cache warmth), per-item cancellation leaves the
//! rest of the batch untouched, and the exact-cache-counter contract
//! (`hits + misses` = the sum of every item's own lookups) survives
//! batching.

use esh_asm::Procedure;
use esh_cc::{Compiler, Vendor, VendorVersion};
use esh_core::{
    BatchQuery, CancelToken, EngineConfig, Query, QueryScores, SimilarityEngine, TargetId,
};
use esh_minic::demo;
use proptest::prelude::*;

fn gcc() -> Compiler {
    Compiler::new(Vendor::Gcc, VendorVersion::new(4, 9))
}

fn clang() -> Compiler {
    Compiler::new(Vendor::Clang, VendorVersion::new(3, 5))
}

/// A small cross-compiler corpus plus the gcc-built query procedures.
fn corpus_and_queries() -> (Vec<(String, Procedure)>, Vec<Procedure>) {
    let funcs = demo::cve_functions();
    let corpus = funcs
        .iter()
        .map(|(name, f)| (format!("t-{name}"), clang().compile_function(f)))
        .collect();
    let queries = funcs
        .iter()
        .take(4)
        .map(|(_, f)| gcc().compile_function(f))
        .collect();
    (corpus, queries)
}

fn engine_over(corpus: &[(String, Procedure)]) -> SimilarityEngine {
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
    assert_eq!(a.query_strands, b.query_strands, "{what}: strand count");
    assert_eq!(
        a.query_strand_occurrences, b.query_strand_occurrences,
        "{what}: occurrences"
    );
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

#[test]
fn batch_results_match_sequential_queries_bitwise() {
    let (corpus, queries) = corpus_and_queries();
    // Sequential baseline on one fresh engine…
    let sequential = engine_over(&corpus);
    let expected: Vec<QueryScores> = queries.iter().map(|q| sequential.query(q)).collect();
    // …must match one shared batched pass on another fresh engine, and
    // duplicates inside the batch must not disturb their neighbours.
    let batched = engine_over(&corpus);
    let items: Vec<BatchQuery> = queries
        .iter()
        .chain(queries.iter().take(2)) // repeat two queries in-batch
        .map(|proc_| BatchQuery {
            query: proc_.into(),
            cancel: CancelToken::new(),
        })
        .collect();
    let results = batched.query_batch(&items);
    assert_eq!(results.len(), queries.len() + 2);
    for (i, result) in results.iter().enumerate() {
        let scores = result.as_ref().expect("live token, live result");
        assert_scores_identical(scores, &expected[i % queries.len()], &format!("item {i}"));
    }
}

#[test]
fn batch_results_are_cache_state_independent() {
    let (corpus, queries) = corpus_and_queries();
    let cold = engine_over(&corpus);
    let cold_items: Vec<BatchQuery> = queries
        .iter()
        .map(|proc_| BatchQuery {
            query: proc_.into(),
            cancel: CancelToken::new(),
        })
        .collect();
    let first: Vec<QueryScores> = cold
        .query_batch(&cold_items)
        .into_iter()
        .map(|r| r.expect("live token"))
        .collect();
    // The same batch against the now-warm cache, and in reversed order,
    // must reproduce every response byte-for-byte.
    let reversed: Vec<BatchQuery> = queries
        .iter()
        .rev()
        .map(|proc_| BatchQuery {
            query: proc_.into(),
            cancel: CancelToken::new(),
        })
        .collect();
    let warm = cold.query_batch(&reversed);
    for (i, result) in warm.iter().enumerate() {
        let scores = result.as_ref().expect("live token");
        let expected = &first[queries.len() - 1 - i];
        assert_scores_identical(scores, expected, &format!("warm reversed item {i}"));
    }
}

#[test]
fn cancelled_items_fail_alone_and_leave_neighbours_identical() {
    let (corpus, queries) = corpus_and_queries();
    let sequential = engine_over(&corpus);
    let expected: Vec<QueryScores> = queries.iter().map(|q| sequential.query(q)).collect();

    let engine = engine_over(&corpus);
    let dead = CancelToken::new();
    dead.cancel();
    let expired = CancelToken::with_deadline(std::time::Instant::now());
    let items = vec![
        BatchQuery {
            query: Query::Procedure(&queries[0]),
            cancel: CancelToken::new(),
        },
        BatchQuery {
            query: Query::Procedure(&queries[1]),
            cancel: dead,
        },
        BatchQuery {
            query: Query::Procedure(&queries[2]),
            cancel: expired,
        },
        BatchQuery {
            query: Query::Procedure(&queries[3]),
            cancel: CancelToken::new(),
        },
    ];
    let results = engine.query_batch(&items);
    assert!(results[1].is_err(), "cancelled item must fail");
    assert!(results[2].is_err(), "expired item must fail");
    assert_scores_identical(
        results[0].as_ref().expect("live item survives"),
        &expected[0],
        "live item 0",
    );
    assert_scores_identical(
        results[3].as_ref().expect("live item survives"),
        &expected[3],
        "live item 3",
    );
    // The engine stays usable: a retry of a cancelled item completes.
    let retry = engine.query(&queries[1]);
    assert_scores_identical(&retry, &expected[1], "retried item");
}

#[test]
fn batch_cache_counters_equal_the_sum_of_per_item_lookups() {
    let (corpus, queries) = corpus_and_queries();
    // Per-query lookup counts, each measured on its own fresh engine:
    // lookup decisions (size filter, signatures, sketch pricing) are pure
    // per pair, so these are exactly the lookups the batch must perform.
    let mut per_query_lookups = 0u64;
    for q in &queries {
        let engine = engine_over(&corpus);
        engine.query(q);
        let stats = engine.cache_stats();
        per_query_lookups += stats.hits + stats.misses;
    }
    let batched = engine_over(&corpus);
    let items: Vec<BatchQuery> = queries
        .iter()
        .map(|proc_| BatchQuery {
            query: proc_.into(),
            cancel: CancelToken::new(),
        })
        .collect();
    batched.query_batch(&items);
    let stats = batched.cache_stats();
    assert_eq!(
        stats.hits + stats.misses,
        per_query_lookups,
        "batched pass must count exactly one lookup per live pair: {stats:?}"
    );
    assert!(
        stats.entries as u64 <= stats.misses + batched.prefilter_stats().refined_pairs,
        "every entry stems from a counted miss or a refine verification"
    );
}

#[test]
fn empty_batch_is_a_no_op() {
    let (corpus, _) = corpus_and_queries();
    let engine = engine_over(&corpus);
    assert!(engine.query_batch(&[]).is_empty());
    let stats = engine.cache_stats();
    assert_eq!(stats.hits + stats.misses, 0);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The serve byte-identity contract, extended to batched execution:
    /// whatever subset of queries lands in one batch, in whatever order
    /// and multiplicity, every response is bit-identical to a sequential
    /// `query` of the same procedure on a fresh engine. Items mix the two
    /// kinds: foreign procedures, corpus members named by procedure and
    /// the same members named by [`TargetId`]; every batch also carries
    /// one member in both forms.
    #[test]
    fn any_batch_composition_matches_sequential_bitwise(
        picks in prop::collection::vec((0usize..3, 0usize..4), 1..6),
        both in 0usize..4,
    ) {
        let (corpus, queries) = corpus_and_queries();
        let sequential = engine_over(&corpus);
        let batched = engine_over(&corpus);
        // (what to batch, the procedure a sequential query scores).
        let member = |t: usize| (Query::Target(TargetId(t)), &corpus[t].1);
        let picked = picks.iter().map(|&(kind, i)| match kind {
            0 => (Query::Procedure(&queries[i]), &queries[i]),
            1 => member(i),
            _ => (Query::Procedure(&corpus[i].1), &corpus[i].1),
        });
        let both = [member(both), (Query::Procedure(&corpus[both].1), &corpus[both].1)];
        let items: Vec<(Query, &Procedure)> = picked.chain(both).collect();
        let batch: Vec<BatchQuery> = items
            .iter()
            .map(|&(query, _)| BatchQuery {
                query,
                cancel: CancelToken::new(),
            })
            .collect();
        let results = batched.query_batch(&batch);
        for (slot, (result, (query, proc_))) in results.iter().zip(&items).enumerate() {
            let scores = result.as_ref().expect("live token");
            let expected = sequential.query(proc_);
            assert_scores_identical(scores, &expected, &format!("item {slot}: {query:?}"));
        }
    }
}
