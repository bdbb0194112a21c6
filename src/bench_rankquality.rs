//! `esh bench-rankquality`: ranking fidelity of the pruned pipeline.
//!
//! This bench measures what the prefilter historically traded away —
//! **retrieval depth** — alongside top-1 identity and SAT savings. It
//! builds the cross-compiler corpus twice (default prefiltered config vs
//! no sketch tier), runs the same CVE queries through both, and scores the pruned ranking *against the exhaustive
//! ranking* with the `esh-eval` rank-fidelity metrics:
//!
//! * per-query top-10 agreement (set overlap of the served windows),
//! * Kendall tau over the shared window (order fidelity),
//! * ROC/CROC of both rankings against same-source ground truth,
//! * SAT-query reduction plus the multi-probe / refine-top-K counters.
//!
//! The full run enforces the tentpole acceptance bar — mean top-10
//! agreement ≥ 0.9 with ≥ 50% SAT-query reduction; `--smoke` shrinks the
//! query count for CI and gates on [`SMOKE_TOP10_FLOOR`]. Results land in
//! `BENCH_rankquality.json` at the repo root (schema:
//! `docs/BENCH_SCHEMAS.md`).

use std::collections::HashMap;
use std::time::Instant;

use esh_core::{EngineConfig, SimilarityEngine, TargetId};
use esh_corpus::{Corpus, CorpusConfig};
use esh_eval::{compare_rankings, RankComparison};

/// Agreement window: the ranking depth triage workloads consume, and the
/// default [`esh_core::PrefilterConfig::refine_top_k`] window.
const TOP_K: usize = 10;

/// Smoke-mode regression floor on mean top-10 agreement. CI fails when a
/// change drops the smoke bench below this; the full bench holds the
/// stricter 0.9 bar.
pub const SMOKE_TOP10_FLOOR: f64 = 0.9;

/// Held-out class pairs sampled by per-corpus margin calibration. Each
/// sample pays one exact verification, so the sample size trades margin
/// confidence against the very SAT budget the bench gates on; 32 pairs
/// keep calibration under ~5% of the exhaustive bill.
const CALIBRATION_SAMPLES: usize = 32;

/// Calibration's score-distortion cap: the largest exact VCP a calibrated
/// prune may zero (0.5 sits at the sigmoid midpoint, below which a pair
/// contributes almost no likelihood evidence).
const CALIBRATION_MAX_PRUNED_VCP: f64 = 0.75;

/// The bench corpus. Ranking *depth* only exists when the served window
/// is a small slice of the ranking **and** the window ranks are held by
/// genuinely similar targets: the full run uses the default corpus (the
/// paper's toolchain matrix with patched variants, template family,
/// wrappers, and the distractor pool), where each query has enough
/// toolchain/patch/wrapper variants to fill the top-10 with
/// sketch-visible similarity. `--smoke` reuses the 28-procedure test
/// corpus — there the window covers a third of the ranking, which is
/// fine for the agreement regression gate but meaningless for SAT
/// accounting (which smoke does not gate).
fn bench_corpus(smoke: bool) -> CorpusConfig {
    if smoke {
        CorpusConfig::small()
    } else {
        CorpusConfig::default()
    }
}

/// One engine mode's rankings and cost counters.
struct ModeRun {
    /// Per-query full rankings `(display name, GES)`, self-match excluded.
    rankings: Vec<Vec<(String, f64)>>,
    /// SAT queries issued across corpus build + all queries.
    sat_queries: u64,
    /// `vcp_pair` invocations: VCP-cache misses plus refine-top-K
    /// re-pricings (refine's lookups bypass the cache counters).
    verifier_calls: u64,
    /// Total query wall time, ms.
    query_ms: u128,
    /// Prefilter counters (zero for the exhaustive mode).
    prefilter: esh_core::PrefilterStatsSnapshot,
}

fn run_mode(corpus: &Corpus, queries: &[usize], sketch: bool) -> ModeRun {
    let mut config = EngineConfig::default();
    config.sketch.enabled = sketch;
    let mut engine = SimilarityEngine::new(config);
    for p in &corpus.procs {
        engine.add_target(p.display(), &p.proc_);
    }
    if sketch {
        // Per-corpus margin calibration (the tentpole's staged design:
        // prune aggressively under a calibrated margin, recover window
        // exactness via probing + refine-top-K). Calibration's own solver
        // work lands in this engine's counters — the reported SAT
        // reduction pays for it honestly.
        if let Some(cal) = engine.calibrate_margin(CALIBRATION_SAMPLES, CALIBRATION_MAX_PRUNED_VCP)
        {
            eprintln!(
                "bench-rankquality: calibrated margin {:.2} from {} pairs \
                 (prunes {:.0}%, max pruned VCP {:.2})",
                cal.margin,
                cal.sampled_pairs,
                cal.pruned_fraction * 100.0,
                cal.max_pruned_exact,
            );
        }
    }
    let t0 = Instant::now();
    let rankings = queries
        .iter()
        .map(|&qi| {
            let scores = engine.query(&corpus.procs[qi].proc_);
            scores
                .ranked()
                .into_iter()
                .filter(|s| s.target != TargetId(qi))
                .map(|s| (s.name.clone(), s.ges))
                .collect()
        })
        .collect();
    let prefilter = engine.prefilter_stats();
    ModeRun {
        rankings,
        sat_queries: engine.solver_stats().sat_queries,
        verifier_calls: engine.cache_stats().misses + prefilter.refined_pairs,
        query_ms: t0.elapsed().as_millis(),
        prefilter,
    }
}

/// Formats an `f64` list as a JSON array.
fn json_floats(xs: &[f64]) -> String {
    let body: Vec<String> = xs.iter().map(|x| format!("{x:.4}")).collect();
    format!("[{}]", body.join(", "))
}

/// Runs the comparison and writes `BENCH_rankquality.json`. `smoke`
/// shrinks the query count for CI. Returns an error when a rank-fidelity
/// gate fails: full mode demands mean top-10 agreement ≥ 0.9 **and**
/// SAT-query reduction ≥ 50%; smoke mode demands mean top-10 agreement ≥
/// [`SMOKE_TOP10_FLOOR`]. Top-1 must be identical in both modes.
pub fn run(smoke: bool) -> Result<(), String> {
    let t0 = Instant::now();
    let n_queries = if smoke { 2 } else { 4 };

    eprintln!("bench-rankquality: building corpus...");
    let corpus = Corpus::build(&bench_corpus(smoke));
    // Ground truth: two targets are relevant to each other iff they were
    // compiled from the same source function.
    let func_of: HashMap<String, &str> = corpus
        .procs
        .iter()
        .map(|p| (p.display(), p.func.as_str()))
        .collect();
    // Distinct CVE procedures, by corpus index — the bench-serve query
    // set.
    let mut names: Vec<String> = corpus
        .procs
        .iter()
        .filter(|p| p.cve.is_some())
        .map(|p| p.display())
        .collect();
    names.sort();
    names.dedup();
    names.truncate(n_queries);
    let queries: Vec<usize> = names
        .iter()
        .map(|q| {
            corpus
                .procs
                .iter()
                .position(|p| p.display() == *q)
                .expect("query name came from the corpus")
        })
        .collect();
    if queries.len() < n_queries {
        return Err(format!(
            "corpus has only {} CVE queries, need {n_queries}",
            queries.len()
        ));
    }

    eprintln!(
        "bench-rankquality: exhaustive pass ({} queries)...",
        queries.len()
    );
    let off = run_mode(&corpus, &queries, false);
    eprintln!("bench-rankquality: prefiltered pass...");
    let on = run_mode(&corpus, &queries, true);

    let per_query: Vec<RankComparison> = queries
        .iter()
        .zip(off.rankings.iter().zip(&on.rankings))
        .map(|(&qi, (reference, pruned))| {
            let query_func = corpus.procs[qi].func.as_str();
            compare_rankings(
                reference,
                pruned,
                |name| func_of.get(name).copied() == Some(query_func),
                TOP_K,
            )
        })
        .collect();

    let top1_identical = per_query.iter().all(|c| c.top1_identical);
    let top10: Vec<f64> = per_query.iter().map(|c| c.topk_agreement).collect();
    let taus: Vec<f64> = per_query.iter().map(|c| c.kendall_tau).collect();
    let mean = |xs: &[f64]| xs.iter().sum::<f64>() / xs.len().max(1) as f64;
    let top10_mean = mean(&top10);
    let top10_min = top10.iter().copied().fold(f64::INFINITY, f64::min);
    let tau_mean = mean(&taus);
    let roc_off = mean(&per_query.iter().map(|c| c.roc_exhaustive).collect::<Vec<_>>());
    let roc_on = mean(&per_query.iter().map(|c| c.roc_pruned).collect::<Vec<_>>());
    let croc_off = mean(&per_query.iter().map(|c| c.croc_exhaustive).collect::<Vec<_>>());
    let croc_on = mean(&per_query.iter().map(|c| c.croc_pruned).collect::<Vec<_>>());
    let sat_reduction = if off.sat_queries > 0 {
        1.0 - on.sat_queries as f64 / off.sat_queries as f64
    } else {
        0.0
    };
    eprintln!(
        "bench-rankquality: top-1 identical: {top1_identical}, top-{TOP_K} agreement \
         mean {:.3} min {:.3}, tau mean {:.3}, SAT {} -> {} ({:.1}% fewer)",
        top10_mean,
        top10_min,
        tau_mean,
        off.sat_queries,
        on.sat_queries,
        sat_reduction * 100.0,
    );

    let json = format!(
        "{{\n  \"bench\": \"rankquality\",\n  \"mode\": \"{mode}\",\n  \
         \"corpus_procs\": {procs},\n  \"queries\": {nq},\n  \
         \"top_k\": {TOP_K},\n  \
         \"top1_identical\": {top1_identical},\n  \
         \"top10_agreement\": {top10_mean:.4},\n  \
         \"top10_agreement_min\": {top10_min:.4},\n  \
         \"top10_agreement_per_query\": {top10_pq},\n  \
         \"kendall_tau\": {tau_mean:.4},\n  \
         \"kendall_tau_per_query\": {tau_pq},\n  \
         \"roc_auc\": {{ \"exhaustive\": {roc_off:.4}, \"prefiltered\": {roc_on:.4} }},\n  \
         \"croc_auc\": {{ \"exhaustive\": {croc_off:.4}, \"prefiltered\": {croc_on:.4} }},\n  \
         \"exhaustive\": {{ \"query_ms\": {oq}, \"sat_queries\": {os}, \
         \"verifier_calls\": {oc} }},\n  \
         \"prefiltered\": {{ \"query_ms\": {nq2}, \"sat_queries\": {ns}, \
         \"verifier_calls\": {ncalls}, \"pairs_pruned\": {pp}, \
         \"sketch_collisions\": {sc}, \"exact_fallbacks\": {ef}, \
         \"ambiguous_probes\": {ap}, \"probe_escalations\": {pe}, \
         \"refined_pairs\": {rp}, \"refine_passes\": {rf} }},\n  \
         \"sat_query_reduction\": {sat_reduction:.4},\n  \
         \"elapsed_ms\": {elapsed}\n}}\n",
        mode = if smoke { "smoke" } else { "full" },
        procs = corpus.procs.len(),
        nq = queries.len(),
        top10_pq = json_floats(&top10),
        tau_pq = json_floats(&taus),
        oq = off.query_ms,
        os = off.sat_queries,
        oc = off.verifier_calls,
        nq2 = on.query_ms,
        ns = on.sat_queries,
        ncalls = on.verifier_calls,
        pp = on.prefilter.pairs_pruned,
        sc = on.prefilter.sketch_collisions,
        ef = on.prefilter.exact_fallbacks,
        ap = on.prefilter.ambiguous_probes,
        pe = on.prefilter.probe_escalations,
        rp = on.prefilter.refined_pairs,
        rf = on.prefilter.refine_passes,
        elapsed = t0.elapsed().as_millis(),
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/BENCH_rankquality.json");
    std::fs::write(path, &json).map_err(|e| format!("writing BENCH_rankquality.json: {e}"))?;
    println!("{json}");

    if !top1_identical {
        return Err("top-1 rankings diverged between prefiltered and exhaustive".into());
    }
    if smoke {
        if top10_mean < SMOKE_TOP10_FLOOR {
            return Err(format!(
                "smoke top-10 agreement {top10_mean:.3} regressed below the \
                 {SMOKE_TOP10_FLOOR} floor"
            ));
        }
    } else {
        if top10_mean < 0.9 {
            return Err(format!(
                "top-10 agreement {top10_mean:.3} misses the 0.9 bar"
            ));
        }
        if sat_reduction < 0.50 {
            return Err(format!(
                "SAT-query reduction {:.1}% misses the 50% bar",
                sat_reduction * 100.0
            ));
        }
    }
    println!("bench-rankquality: passed; wrote BENCH_rankquality.json");
    Ok(())
}
