//! A corpus member queried by its target record is the same query as
//! the member's procedure.
//!
//! [`Query::Target`] prepares a query from the engine's record of the
//! target (its strand classes with their stored signatures, sketches
//! and probe slots) instead of splitting and lifting the procedure. The
//! pin: for every target, the two forms give bit-identical GES, S-LOG
//! and S-VCP, move the VCP-cache hit and miss counters and every
//! prefilter counter by the same amounts, and the record form lifts
//! nothing. It holds on a resident engine and on engines opened from
//! sharded indexes (1 and 4 targets per shard), cold and warm.

use esh_asm::Procedure;
use esh_cc::{Compiler, Vendor, VendorVersion};
use esh_core::{
    BatchQuery, CancelToken, EngineConfig, PrefilterStatsSnapshot, Query, QueryScores,
    SimilarityEngine, TargetId,
};
use esh_minic::demo;

/// clang 3.5 and gcc 4.9 builds of the demo CVE functions, so each
/// member has a cross-compiler sibling in the corpus.
fn corpus() -> Vec<(String, Procedure)> {
    let mut corpus = Vec::new();
    for (vendor, major, minor) in [(Vendor::Clang, 3, 5), (Vendor::Gcc, 4, 9)] {
        let cc = Compiler::new(vendor, VendorVersion::new(major, minor));
        for (name, f) in demo::cve_functions() {
            corpus.push((format!("{name}-{vendor:?}"), cc.compile_function(&f)));
        }
    }
    corpus
}

fn resident(corpus: &[(String, Procedure)]) -> SimilarityEngine {
    let mut engine = SimilarityEngine::new(EngineConfig {
        threads: 2,
        ..EngineConfig::default()
    });
    for (name, p) in corpus {
        engine.add_target(name.clone(), p);
    }
    engine
}

fn scratch(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("esh-record-{tag}-{}", std::process::id()))
}

/// Removes a scratch index directory when the test ends, also on panic.
struct Cleanup(std::path::PathBuf);

impl Drop for Cleanup {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Everything a query moves that the two forms must move equally.
#[derive(Debug, PartialEq, Eq)]
struct Counters {
    hits: u64,
    misses: u64,
    prefilter: PrefilterStatsSnapshot,
}

fn counters(engine: &SimilarityEngine) -> Counters {
    let cache = engine.cache_stats();
    Counters {
        hits: cache.hits,
        misses: cache.misses,
        prefilter: engine.prefilter_stats(),
    }
}

fn run(engine: &SimilarityEngine, query: Query) -> QueryScores {
    let item = BatchQuery {
        query,
        cancel: CancelToken::new(),
    };
    engine
        .query_batch(&[item])
        .pop()
        .expect("one item, one result")
        .expect("live token, healthy index")
}

fn assert_identical(a: &QueryScores, b: &QueryScores, what: &str) {
    assert_eq!(a.query_strands, b.query_strands, "{what}: strands");
    assert_eq!(
        a.query_strand_occurrences, b.query_strand_occurrences,
        "{what}: occurrences"
    );
    assert_eq!(a.scores.len(), b.scores.len(), "{what}: rows");
    for (x, y) in a.scores.iter().zip(&b.scores) {
        assert_eq!(x.name, y.name, "{what}: target order");
        let bits =
            |s: &esh_core::TargetScore| [s.ges.to_bits(), s.s_log.to_bits(), s.s_vcp.to_bits()];
        assert_eq!(bits(x), bits(y), "{what}: scores of {}", x.name);
    }
}

/// Queries every target twice (cold, then warm) on two engines built
/// alike, one by procedure and one by record, checking scores and
/// counter deltas after every query.
fn check(by_proc: &SimilarityEngine, by_record: &SimilarityEngine, corpus: &[(String, Procedure)]) {
    for pass in ["cold", "warm"] {
        for (t, (name, p)) in corpus.iter().enumerate() {
            let what = format!("{pass} `{name}`");
            assert_eq!(by_record.target_name(TargetId(t)), name);
            let a = run(by_proc, Query::Procedure(p));
            let lifted = by_record.query_strands_lifted();
            let b = run(by_record, Query::Target(TargetId(t)));
            assert_identical(&a, &b, &what);
            assert_eq!(counters(by_proc), counters(by_record), "{what}: counters");
            assert_eq!(by_record.query_strands_lifted(), lifted, "{what}: lifted");
        }
    }
    assert!(by_proc.query_strands_lifted() > 0);
}

#[test]
fn record_queries_match_procedure_queries_on_a_resident_engine() {
    let corpus = corpus();
    check(&resident(&corpus), &resident(&corpus), &corpus);
}

#[test]
fn record_queries_match_procedure_queries_on_sharded_indexes() {
    let corpus = corpus();
    let built = resident(&corpus);
    for per_shard in [1, 4] {
        let dir = scratch(&format!("{per_shard}"));
        let _cleanup = Cleanup(dir.clone());
        esh_index::write_sharded(&built, &dir, per_shard).expect("write index");
        let open = || esh_index::open_sharded(&dir).expect("open index");
        let (by_proc, by_record) = (open(), open());
        check(&by_proc, &by_record, &corpus);
        assert_eq!(
            by_proc.shard_stats().fanout_total,
            by_record.shard_stats().fanout_total,
            "{per_shard}/shard: fan-out"
        );
    }
}
