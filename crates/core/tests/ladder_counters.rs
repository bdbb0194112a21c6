//! Exact counter pins for the per-cell pricing ladder.
//!
//! Every matrix cell and refine cell is priced by the same layered
//! sequence: size ratio and signature filters, the
//! sketch rung (LSH mask → containment bounds → probe), then the cache
//! and the verifier. Rankings are pinned bit-for-bit elsewhere; this
//! file pins *how much work each rung did* on a fixed corpus and query
//! set, so a refactor of the ladder that reorders or drops a rung shows
//! up as a counter change even when the scores survive it.
//!
//! `threads: 1` makes the verifier sessions, and with them the
//! per-layer decision counters, a pure function of the inputs. SAT
//! wall time is the one counter left out.

use esh_asm::Procedure;
use esh_cc::{Compiler, Vendor, VendorVersion};
use esh_core::{
    BatchQuery, CacheStats, CancelToken, EngineConfig, EquivStats, PrefilterConfig,
    PrefilterStatsSnapshot, SimilarityEngine, SolverPerf,
};
use esh_minic::demo;

fn compiler(vendor: Vendor, major: u8, minor: u8) -> Compiler {
    Compiler::new(vendor, VendorVersion::new(major, minor))
}

/// An engine over clang 3.5 + icc 15 builds of the demo CVE functions.
fn engine(config: EngineConfig) -> SimilarityEngine {
    let mut engine = SimilarityEngine::new(EngineConfig {
        threads: 1,
        ..config
    });
    for (vendor, major, minor) in [(Vendor::Clang, 3, 5), (Vendor::Icc, 15, 0)] {
        let cc = compiler(vendor, major, minor);
        for (name, f) in demo::cve_functions() {
            engine.add_target(format!("{name}-{vendor:?}"), &cc.compile_function(&f));
        }
    }
    engine
}

/// Counters after a cold batch of gcc 4.9 builds of the first four
/// functions (one in-batch duplicate) followed by a warm sequential
/// repeat of every query.
fn run(engine: &SimilarityEngine) -> (PrefilterStatsSnapshot, CacheStats, EquivStats) {
    let gcc = compiler(Vendor::Gcc, 4, 9);
    let queries: Vec<Procedure> = demo::cve_functions()
        .iter()
        .take(4)
        .map(|(_, f)| gcc.compile_function(f))
        .collect();
    let items: Vec<BatchQuery> = queries
        .iter()
        .chain(&queries[..1])
        .map(|proc_| BatchQuery {
            query: proc_.into(),
            cancel: CancelToken::new(),
        })
        .collect();
    for result in engine.query_batch(&items) {
        result.expect("live token, resident engine");
    }
    for q in &queries {
        engine.query(q);
    }
    let mut equiv = engine.equiv_stats();
    equiv.solver.sat_time_ns = 0;
    (engine.prefilter_stats(), engine.cache_stats(), equiv)
}

/// The per-layer decision counters as one comparable row: normalization,
/// random, directed, SAT-equal, SAT-unequal, unknown, pair-cache hits.
fn layers(e: &EquivStats) -> [u64; 7] {
    [
        e.by_normalization,
        e.by_random,
        e.by_directed,
        e.sat_equal,
        e.sat_not_equal,
        e.unknown,
        e.cache_hits,
    ]
}

#[test]
fn default_profile_counters_are_pinned() {
    let (prefilter, cache, equiv) = run(&engine(EngineConfig::default()));
    assert_eq!(
        prefilter,
        PrefilterStatsSnapshot {
            pairs_pruned: 931,
            sketch_collisions: 496,
            exact_fallbacks: 765,
            ambiguous_probes: 1247,
            probe_escalations: 470,
            probe_sketches: 113,
            refined_pairs: 362,
            refine_passes: 9,
        }
    );
    assert_eq!(
        cache,
        CacheStats {
            hits: 440,
            misses: 325,
            entries: 687,
        }
    );
    assert_eq!(layers(&equiv), [4959, 250, 686, 26, 346, 0, 3887]);
    assert_eq!(
        equiv.solver,
        SolverPerf {
            sat_queries: 372,
            blast_cache_hits: 639,
            blast_cache_misses: 3916,
            conflicts: 3257,
            sat_time_ns: 0,
            solver_resets: 0,
        }
    );
}

#[test]
fn lsh_only_profile_counters_are_pinned() {
    let (prefilter, cache, equiv) = run(&engine(EngineConfig {
        sketch: PrefilterConfig::lsh_only(),
        ..EngineConfig::default()
    }));
    assert_eq!(
        prefilter,
        PrefilterStatsSnapshot {
            pairs_pruned: 7950,
            sketch_collisions: 496,
            exact_fallbacks: 0,
            ambiguous_probes: 0,
            probe_escalations: 0,
            probe_sketches: 0,
            refined_pairs: 470,
            refine_passes: 9,
        }
    );
    assert_eq!(
        cache,
        CacheStats {
            hits: 287,
            misses: 209,
            entries: 679,
        }
    );
    assert_eq!(layers(&equiv), [4694, 260, 701, 26, 348, 0, 3925]);
    assert_eq!(
        equiv.solver,
        SolverPerf {
            sat_queries: 374,
            blast_cache_hits: 647,
            blast_cache_misses: 3886,
            conflicts: 2233,
            sat_time_ns: 0,
            solver_resets: 0,
        }
    );
}

/// A margin above the default prunes more and probes less, so every
/// sketch-rung counter moves off the default profile's pin.
#[test]
fn margin_0_9_counters_are_pinned() {
    let (prefilter, cache, equiv) = run(&engine(EngineConfig {
        sketch: PrefilterConfig {
            exact_fallback_margin: 0.9,
            ..PrefilterConfig::default()
        },
        ..EngineConfig::default()
    }));
    assert_eq!(
        prefilter,
        PrefilterStatsSnapshot {
            pairs_pruned: 1401,
            sketch_collisions: 496,
            exact_fallbacks: 295,
            ambiguous_probes: 774,
            probe_escalations: 295,
            probe_sketches: 121,
            refined_pairs: 527,
            refine_passes: 9,
        }
    );
    assert_eq!(
        cache,
        CacheStats {
            hits: 172,
            misses: 123,
            entries: 650,
        }
    );
    assert_eq!(layers(&equiv), [4405, 250, 685, 26, 341, 0, 3824]);
    assert_eq!(
        equiv.solver,
        SolverPerf {
            sat_queries: 367,
            blast_cache_hits: 635,
            blast_cache_misses: 3828,
            conflicts: 2282,
            sat_time_ns: 0,
            solver_resets: 0,
        }
    );
}
