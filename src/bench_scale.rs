//! `esh bench-scale`: the scale tier measured end to end.
//!
//! For each corpus size (1k/5k/10k/100k procedures; `--smoke` keeps 1k
//! only, `--max-procs N` drops every rung above `N`) the bench streams
//! the seeded synthetic corpus
//! ([`esh_corpus::scale::stream_scale_corpus_with_threads`]) straight
//! into an engine running the pure-LSH scale profile
//! ([`esh_core::PrefilterConfig::lsh_only`]), persists it as a sharded
//! binary index (format v9), then measures what the scale tier exists to
//! improve:
//!
//! * **build throughput** — procedures ingested per second (streamed
//!   generation + compilation + decompose/lift/dedup/sketch),
//! * **cold-load time** — [`esh_index::open_sharded`], best of 5
//!   (manifest + `core.bin` only; procedure bodies stay on disk until a
//!   query needs them),
//! * **query latency and shard fan-out** — ranked queries against the
//!   lazily loaded engine under per-record demand decoding, each first
//!   cold and then as a warm repeat on the same engine, with shard
//!   residency, the shards each query left unopened (a shard opens
//!   only to decode a record, and under this profile the ladder settles
//!   every LSH non-candidate cell from the candidate mask), peak
//!   resident bytes, and decoded bytes against the open
//!   shard files' bytes reported,
//! * **memory-bounded serving** — the same queries repeated under a
//!   one-shard [`set_shard_budget`](esh_core::SimilarityEngine::set_shard_budget)
//!   on one pricing thread, so the eviction order is a pure function of
//!   the corpus; gated on evictions happening, settled residency staying
//!   under the budget, and the ranked output staying bit-identical to
//!   the unbudgeted run.
//!
//! The bench *gates* on: the queries leaving whole shards unopened, at
//! least one `(query, shard)` pair per query; demand decoding decoding
//! strictly fewer bytes than the shards it opened hold, with at least
//! one partially-decoded shard after every query; the budgeted
//! invariants above; and an identity check — under the shipped default
//! and under the pure-LSH profile, the ranked output of a sharded engine
//! must equal the resident engine it was written from, bit for bit, and
//! so must its cache hits and misses and every prefilter counter, on the
//! cross-compiler paper corpus (371 procedures; `--smoke` uses the small
//! 28-procedure matrix). A full run writes its results to
//! `BENCH_scale.json` in the working directory; a `--smoke` run only
//! prints them, so it never overwrites the committed record.

use std::time::Instant;

use esh_core::{EngineConfig, PrefilterConfig, QueryScores, SimilarityEngine};
use esh_corpus::scale::{scale_matrix, stream_scale_corpus_with_threads, ScaleConfig};
use esh_corpus::{Corpus, CorpusConfig};

/// Generation seed for the synthetic corpus (fixed: the bench is a
/// regression harness, not a fuzzer).
const SEED: u64 = 0x5CA1E;

/// Targets per shard for the persisted v9 indexes. Finer than the CLI
/// default (64): a shard stays closed for a query only when none of its
/// classes is an LSH band candidate of any query strand, and on the
/// digest-heavy synthetic corpus a 64-target shard almost always holds
/// one. Eight targets keeps shards coarse enough to amortize loads while
/// the fan-out, and the shards it leaves unopened, still show how
/// little of the index a query reads.
const TARGETS_PER_SHARD: usize = 8;

/// Targets per shard for the identity check's indexes: fine enough that
/// even the 28-procedure smoke matrix spans several shards, some of which
/// a pure-LSH query leaves unopened.
const IDENTITY_TARGETS_PER_SHARD: usize = 4;

/// Ranked queries issued against each lazily loaded index.
const QUERIES_PER_SIZE: usize = 2;

/// Warm repeats of each query; their median is its `warm_query_ms`.
const WARM_REPEATS: usize = 3;

/// Knobs the `esh bench-scale` CLI exposes.
#[derive(Default)]
pub struct BenchScaleOptions {
    /// Keep the 1k size and the small identity matrix (CI).
    pub smoke: bool,
    /// Compile threads for the streamed corpus build; `0` means one per
    /// matrix configuration.
    pub threads: usize,
    /// Skip corpus rungs above this size (`0` = run them all). The full
    /// ladder's 100k rung dominates wall time; `--max-procs 10000`
    /// keeps a local full run fast.
    pub max_procs: usize,
}

/// One corpus size's measurements.
struct SizeRun {
    procs: usize,
    build_ms: u128,
    sharded_bytes: u64,
    load_ms: u128,
    query_ms: Vec<u128>,
    warm_query_ms: Vec<f64>,
    shards_total: u64,
    shards_loaded: u64,
    shards_pruned: u64,
    resident_bytes_peak: u64,
    decoded_bytes: u64,
    mapped_bytes: u64,
    classes_decoded: u64,
    shards_partial_min: u64,
    budget_bytes: u64,
    budget_resident_bytes: u64,
    budget_resident_peak: u64,
    budget_evicted: u64,
}

impl SizeRun {
    fn throughput(&self) -> f64 {
        self.procs as f64 / (self.build_ms.max(1) as f64 / 1000.0)
    }
}

fn scratch_dir() -> std::path::PathBuf {
    std::env::temp_dir().join(format!("esh-bench-scale-{}", std::process::id()))
}

/// The scale-tier engine profile: pure-LSH prefiltering, under which a
/// shard holding no band candidate of a query is never opened for it.
fn scale_engine() -> SimilarityEngine {
    SimilarityEngine::new(EngineConfig {
        sketch: PrefilterConfig::lsh_only(),
        ..EngineConfig::default()
    })
}

/// Best-of-5 open time, in ms. Best-of, not first-of: the first open
/// after a build pays the page-cache fill, and the minimum is the
/// steady-state open cost.
fn cold_load_ms(eshx: &std::path::Path) -> Result<u128, String> {
    let mut best = u128::MAX;
    for _ in 0..5 {
        let t = Instant::now();
        let engine = esh_index::open_sharded(eshx).map_err(|e| e.to_string())?;
        best = best.min(t.elapsed().as_millis());
        drop(engine);
    }
    Ok(best)
}

/// The per-size query battery: distinct sources compiled with one matrix
/// toolchain — each has an exact self-match in the corpus, so the
/// queries exercise the full pipeline including VCP.
fn query_battery() -> Vec<esh_asm::Procedure> {
    let tc = scale_matrix()[7]; // gcc 4.9 -O2
    let cc = esh_cc::Compiler::with_opt(tc.vendor, tc.version, tc.opt);
    (0..QUERIES_PER_SIZE as u64)
        .map(|k| cc.compile_function(&esh_minic::gen::generate_scale_source(SEED, k)))
        .collect()
}

fn assert_identical(a: &QueryScores, b: &QueryScores, what: &str) -> Result<(), String> {
    let ra = a.ranked();
    let rb = b.ranked();
    if ra.len() != rb.len() {
        return Err(format!("{what}: ranked lengths differ"));
    }
    for (x, y) in ra.iter().zip(&rb) {
        if x.name != y.name || x.ges.to_bits() != y.ges.to_bits() {
            return Err(format!(
                "{what}: ranking diverges at `{}` vs `{}`",
                x.name, y.name
            ));
        }
    }
    Ok(())
}

fn measure_size(procs: usize, threads: usize) -> Result<SizeRun, String> {
    let dir = scratch_dir();
    std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
    let eshx_path = dir.join(format!("scale-{procs}.eshx"));

    eprintln!("bench-scale: [{procs}] streaming corpus into engine ({threads} threads)...");
    let config = ScaleConfig::new(procs, SEED);
    let t0 = Instant::now();
    let mut engine = scale_engine();
    let emitted = stream_scale_corpus_with_threads(&config, threads, |p| {
        engine.add_target(p.display(), &p.proc_);
    });
    let build_ms = t0.elapsed().as_millis();
    assert_eq!(emitted, procs);

    let summary = esh_index::write_sharded(&engine, &eshx_path, TARGETS_PER_SHARD)
        .map_err(|e| e.to_string())?;
    drop(engine);

    eprintln!(
        "bench-scale: [{procs}] built in {build_ms}ms ({:.0} procs/s); sharded {}B across {} \
         shards",
        procs as f64 / (build_ms.max(1) as f64 / 1000.0),
        summary.total_bytes(),
        summary.shards,
    );

    let load_ms = cold_load_ms(&eshx_path)?;
    eprintln!("bench-scale: [{procs}] cold load: {load_ms}ms");

    let queries = query_battery();
    let open = || esh_index::open_sharded(&eshx_path).map_err(|e| e.to_string());

    // Unbudgeted pass: latency, shards left unopened, peak residency,
    // decoded bytes against the open shard files' bytes.
    // `shards_partial_min` is the smallest count of partially-decoded
    // resident shards observed after any query — the gate that demand
    // decoding actually leaves neighbour records raw on every query, not
    // just in aggregate.
    let lazy = open()?;
    let mut query_ms = Vec::with_capacity(queries.len());
    let mut baselines = Vec::with_capacity(queries.len());
    let mut shards_partial_min = u64::MAX;
    for q in &queries {
        let tq = Instant::now();
        let scores = lazy.query(q);
        query_ms.push(tq.elapsed().as_millis());
        assert_eq!(scores.scores.len(), procs);
        baselines.push(scores);
        shards_partial_min = shards_partial_min.min(lazy.shard_stats().shards_partial);
    }
    let stats = lazy.shard_stats();
    // Warm repeats, after the counters above are read: every exact cell
    // now hits the cache, so this is the cost a query pays for its
    // surviving cells and its ranking, not for verification.
    let mut warm_query_ms = Vec::with_capacity(queries.len());
    for (i, q) in queries.iter().enumerate() {
        let mut ms: Vec<f64> = (0..WARM_REPEATS)
            .map(|_| {
                let tq = Instant::now();
                let scores = lazy.query(q);
                let elapsed = tq.elapsed().as_secs_f64() * 1000.0;
                assert_identical(&baselines[i], &scores, &format!("[{procs}] warm query {i}"))
                    .map(|()| elapsed)
            })
            .collect::<Result<_, _>>()?;
        ms.sort_by(f64::total_cmp);
        warm_query_ms.push(ms[WARM_REPEATS / 2]);
    }
    drop(lazy);
    eprintln!(
        "bench-scale: [{procs}] queries {query_ms:?}ms (warm {warm_query_ms:.3?}ms); shards loaded \
         {}/{} (fanout {}, pruned {}), peak resident {}B; decoded {}B of {}B open ({} classes, \
         ≥{} shards partial)",
        stats.shards_loaded,
        stats.shards_total,
        stats.fanout_total,
        stats.pruned_total,
        stats.resident_bytes_peak,
        stats.decoded_bytes,
        stats.mapped_bytes,
        stats.classes_decoded_total,
        shards_partial_min,
    );

    // Budgeted pass: one-shard budget, same queries. Evictions must
    // happen, settled residency must respect the budget, and the ranked
    // output must not move by a bit. One pricing thread touches shards
    // in one order, so evictions and the resident peak repeat exactly.
    let budget_bytes = esh_index::read_manifest(&eshx_path)
        .map_err(|e| e.to_string())?
        .largest_shard_bytes;
    let mut budgeted = open()?;
    budgeted.set_threads(1);
    budgeted.set_shard_budget(budget_bytes);
    for (i, q) in queries.iter().enumerate() {
        let scores = budgeted.query(q);
        assert_identical(
            &baselines[i],
            &scores,
            &format!("[{procs}] budgeted query {i}"),
        )?;
    }
    let bstats = budgeted.shard_stats();
    drop(budgeted);
    eprintln!(
        "bench-scale: [{procs}] budget {budget_bytes}B: {} evictions, settled {}B, peak {}B",
        bstats.evicted_total, bstats.resident_bytes, bstats.resident_bytes_peak,
    );

    std::fs::remove_dir_all(&eshx_path).ok();

    Ok(SizeRun {
        procs,
        build_ms,
        sharded_bytes: summary.total_bytes(),
        load_ms,
        query_ms,
        warm_query_ms,
        shards_total: stats.shards_total,
        shards_loaded: stats.shards_loaded,
        shards_pruned: stats.pruned_total,
        resident_bytes_peak: stats.resident_bytes_peak,
        decoded_bytes: stats.decoded_bytes,
        mapped_bytes: stats.mapped_bytes,
        classes_decoded: stats.classes_decoded_total,
        shards_partial_min,
        budget_bytes,
        budget_resident_bytes: bstats.resident_bytes,
        budget_resident_peak: bstats.resident_bytes_peak,
        budget_evicted: bstats.evicted_total,
    })
}

/// Identity on the cross-compiler matrix, under the shipped default and
/// under the pure-LSH profile: a sharded engine's ranked output must
/// equal the resident engine it was written from, bit for bit, scores
/// and order alike, and so must its cache hits and misses and every
/// prefilter counter. Returns `(corpus procs, queries checked per
/// profile)`.
fn check_identity(smoke: bool) -> Result<(usize, usize), String> {
    let corpus_config = if smoke {
        CorpusConfig::small()
    } else {
        CorpusConfig::default()
    };
    let corpus = Corpus::build(&corpus_config);
    let queries: Vec<usize> = corpus
        .procs
        .iter()
        .enumerate()
        .filter(|(_, p)| p.cve.is_some())
        .map(|(i, _)| i)
        .step_by(7)
        .take(3)
        .collect();
    let dir = scratch_dir();
    std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
    let profiles = [
        ("default", PrefilterConfig::default()),
        ("lsh_only", PrefilterConfig::lsh_only()),
    ];
    for (profile, sketch) in profiles {
        eprintln!(
            "bench-scale: identity check ({profile}) on the {}-procedure compiler matrix...",
            corpus.procs.len()
        );
        let mut resident = SimilarityEngine::new(EngineConfig {
            sketch,
            ..EngineConfig::default()
        });
        for p in &corpus.procs {
            resident.add_target(p.display(), &p.proc_);
        }
        let eshx_path = dir.join(format!("identity-{profile}.eshx"));
        esh_index::write_sharded(&resident, &eshx_path, IDENTITY_TARGETS_PER_SHARD)
            .map_err(|e| e.to_string())?;
        let from_shards = esh_index::open_sharded(&eshx_path).map_err(|e| e.to_string())?;
        for &qi in &queries {
            let a = resident.query(&corpus.procs[qi].proc_);
            let b = from_shards.query(&corpus.procs[qi].proc_);
            let ra = a.ranked();
            let rb = b.ranked();
            if ra.len() != rb.len() {
                return Err(format!(
                    "identity ({profile}): ranked lengths differ on query {qi}"
                ));
            }
            for (x, y) in ra.iter().zip(&rb) {
                if x.name != y.name
                    || x.ges.to_bits() != y.ges.to_bits()
                    || x.s_log.to_bits() != y.s_log.to_bits()
                    || x.s_vcp.to_bits() != y.s_vcp.to_bits()
                {
                    return Err(format!(
                        "identity ({profile}): sharded ranking diverges on query {qi} at `{}` \
                         vs `{}`",
                        x.name, y.name
                    ));
                }
            }
        }
        // The counter contract too: both engines saw the same queries, so
        // their hit/miss and prefilter counters must agree exactly.
        let ca = resident.cache_stats();
        let cb = from_shards.cache_stats();
        if (ca.hits, ca.misses) != (cb.hits, cb.misses) {
            return Err(format!(
                "identity ({profile}): cache counters diverge — resident {}h/{}m, sharded \
                 {}h/{}m",
                ca.hits, ca.misses, cb.hits, cb.misses
            ));
        }
        let (pa, pb) = (resident.prefilter_stats(), from_shards.prefilter_stats());
        if pa != pb {
            return Err(format!(
                "identity ({profile}): prefilter counters diverge — resident {pa:?}, sharded \
                 {pb:?}"
            ));
        }
        std::fs::remove_dir_all(&eshx_path).ok();
    }
    Ok((corpus.procs.len(), queries.len()))
}

/// All the pass/fail conditions over the measured runs, separated from
/// measurement so a failure still leaves every number printed above it.
fn apply_gates(runs: &[SizeRun]) -> Result<(), String> {
    for r in runs {
        if r.shards_pruned < QUERIES_PER_SIZE as u64 {
            return Err(format!(
                "pruning gate failed at {} procs: {} whole-shard prunes over {} queries \
                 (need one per query)",
                r.procs, r.shards_pruned, QUERIES_PER_SIZE
            ));
        }
        if r.decoded_bytes >= r.mapped_bytes {
            return Err(format!(
                "demand-decode gate failed at {} procs: decoded {}B is not below mapped {}B \
                 (queries decoded every record they mapped)",
                r.procs, r.decoded_bytes, r.mapped_bytes
            ));
        }
        if r.shards_partial_min < 1 {
            return Err(format!(
                "partial-decode gate failed at {} procs: some query left no resident shard \
                 partially decoded",
                r.procs
            ));
        }
        if r.budget_evicted == 0 {
            return Err(format!(
                "eviction gate failed at {} procs: a one-shard budget ({}B) never evicted",
                r.procs, r.budget_bytes
            ));
        }
        if r.budget_resident_bytes > r.budget_bytes {
            return Err(format!(
                "budget gate failed at {} procs: settled residency {}B exceeds the {}B budget",
                r.procs, r.budget_resident_bytes, r.budget_bytes
            ));
        }
    }
    Ok(())
}

/// Runs the scale bench, prints its report and, unless `--smoke`, writes
/// it to `BENCH_scale.json`. `--smoke` keeps the 1k size and the small
/// identity matrix for CI. Returns an error
/// when any gate fails — unopened shards, demand decoding, eviction
/// under budget, or sharded-vs-resident identity.
pub fn run(opts: &BenchScaleOptions) -> Result<(), String> {
    let t0 = Instant::now();
    let ladder: &[usize] = if opts.smoke {
        &[1000]
    } else {
        &[1000, 5000, 10_000, 100_000]
    };
    let sizes: Vec<usize> = match opts.max_procs {
        0 => ladder.to_vec(),
        cap => {
            let kept: Vec<usize> = ladder.iter().copied().filter(|&n| n <= cap).collect();
            // A cap below the smallest rung still runs that rung — an
            // empty bench would trivially "pass" every gate.
            if kept.is_empty() {
                vec![ladder[0]]
            } else {
                kept
            }
        }
    };
    let threads = if opts.threads == 0 {
        scale_matrix().len()
    } else {
        opts.threads
    };
    let mut runs = Vec::with_capacity(sizes.len());
    for &n in &sizes {
        runs.push(measure_size(n, threads)?);
    }
    let (identity_procs, identity_queries) = check_identity(opts.smoke)?;
    std::fs::remove_dir_all(scratch_dir()).ok();

    apply_gates(&runs)?;

    let size_entries: Vec<String> = runs
        .iter()
        .map(|r| {
            let q: Vec<String> = r.query_ms.iter().map(|m| m.to_string()).collect();
            let warm: Vec<String> = r.warm_query_ms.iter().map(|m| format!("{m:.3}")).collect();
            format!(
                "    {{ \"procs\": {}, \"build_ms\": {}, \
                 \"build_throughput_procs_per_s\": {:.1}, \
                 \"sharded_bytes\": {}, \"load_ms\": {}, \
                 \"query_ms\": [{}], \"warm_query_ms\": [{}], \"shards_total\": {}, \
                 \"shards_loaded_after_queries\": {}, \
                 \"shards_pruned\": {}, \"resident_bytes_peak\": {}, \"decoded_bytes\": {}, \
                 \"mapped_bytes\": {}, \"classes_decoded\": {}, \"shards_partial_min\": {}, \
                 \"shard_budget_bytes\": {}, \"budget_resident_bytes\": {}, \
                 \"budget_resident_bytes_peak\": {}, \"shards_evicted\": {} }}",
                r.procs,
                r.build_ms,
                r.throughput(),
                r.sharded_bytes,
                r.load_ms,
                q.join(", "),
                warm.join(", "),
                r.shards_total,
                r.shards_loaded,
                r.shards_pruned,
                r.resident_bytes_peak,
                r.decoded_bytes,
                r.mapped_bytes,
                r.classes_decoded,
                r.shards_partial_min,
                r.budget_bytes,
                r.budget_resident_bytes,
                r.budget_resident_peak,
                r.budget_evicted,
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"bench\": \"scale\",\n  \"mode\": \"{mode}\",\n  \"seed\": {SEED},\n  \
         \"matrix_configs\": {matrix},\n  \"targets_per_shard\": {TARGETS_PER_SHARD},\n  \
         \"profile\": \"lsh_only\",\n  \
         \"sizes\": [\n{sizes}\n  ],\n  \
         \"identity\": {{ \"corpus_procs\": {ip}, \"queries\": {iq}, \"identical\": true }},\n  \
         \"elapsed_ms\": {elapsed}\n}}\n",
        mode = if opts.smoke { "smoke" } else { "full" },
        matrix = scale_matrix().len(),
        sizes = size_entries.join(",\n"),
        ip = identity_procs,
        iq = identity_queries,
        elapsed = t0.elapsed().as_millis(),
    );
    if !opts.smoke {
        std::fs::write("BENCH_scale.json", &json).map_err(|e| e.to_string())?;
        eprintln!("bench-scale: wrote BENCH_scale.json");
    }
    print!("{json}");
    Ok(())
}
