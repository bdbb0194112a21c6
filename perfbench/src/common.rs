//! What the three workloads share: run context, the report they fill,
//! corpus compilation, index builds, and engine counter snapshots.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use esh_core::{
    CacheStats, CancelToken, EngineConfig, PrefilterStatsSnapshot, QueryError, QueryScores,
    ShardStats, SimilarityEngine, SolverPerf, TargetId,
};
use esh_corpus::scale::{stream_scale_corpus_with_threads, ScaleConfig};
use esh_corpus::CompiledProc;
use esh_index::{EshxOpenOptions, WriteSummary};

use crate::measure::{self, Digest, Trace};

/// Targets per shard: the `esh index build` default, so the benchmark
/// serves the index users get.
pub const TARGETS_PER_SHARD: usize = 64;

/// Set-up repetitions per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 3;

/// Matches per ranking that `precision_at_10` and the served
/// responses cover (also the daemon's default `top_n`).
pub const TOP_N: usize = 10;

/// Run-wide settings and caps.
pub struct Ctx {
    pub seed: u64,
    pub seconds: Duration,
    pub trace: bool,
    /// `std::thread::available_parallelism`: the cap on engine threads,
    /// compile threads and client connections.
    pub nproc: usize,
    out_dir: PathBuf,
}

impl Ctx {
    pub fn new(seed: u64, seconds: Duration, trace: bool) -> Ctx {
        let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
        let out_dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
        Ctx {
            seed,
            seconds,
            trace,
            nproc,
            out_dir,
        }
    }

    /// A fresh scratch directory for this process's index files. Removed
    /// when the returned guard drops.
    pub fn work_dir(&self) -> Result<WorkDir, String> {
        let dir = self.out_dir.join(format!("work-{}", std::process::id()));
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(WorkDir(dir))
    }

    /// Appends this run's configuration and metrics to `out/results.jsonl`.
    pub fn save_result(&self, workload: &str, config: &str, metrics: &str) -> std::io::Result<()> {
        use std::io::Write as _;
        std::fs::create_dir_all(&self.out_dir)?;
        let mut f = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(self.out_dir.join("results.jsonl"))?;
        writeln!(
            f,
            "{{\"workload\": \"{workload}\", \"config\": {config}, \"metrics\": {metrics}}}"
        )
    }

    /// Writes the traced run's spans to `out/trace-<workload>-<seed>.jsonl`.
    pub fn save_trace(&self, workload: &str, trace: &Trace) -> Result<(), String> {
        std::fs::create_dir_all(&self.out_dir).map_err(|e| e.to_string())?;
        let path = self
            .out_dir
            .join(format!("trace-{workload}-{}.jsonl", self.seed));
        trace
            .write(&path)
            .map_err(|e| format!("{}: {e}", path.display()))
    }

    /// Appends this run's per-query solver counters to
    /// `out/solver-runs.tsv` and returns their min/max over every run
    /// of this workload and seed recorded there, as a JSON object. The
    /// counters do not repeat exactly from run to run (see README).
    pub fn solver_across_runs(&self, workload: &str, per_query: [f64; 3]) -> String {
        use std::io::Write as _;
        let path = self.out_dir.join("solver-runs.tsv");
        let key = format!("{workload}\t{}", self.seed);
        let line = format!(
            "{key}\t{}\t{}\t{}\n",
            per_query[0], per_query[1], per_query[2]
        );
        let _ = std::fs::create_dir_all(&self.out_dir);
        let _ = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)
            .and_then(|mut f| f.write_all(line.as_bytes()));
        let text = std::fs::read_to_string(&path).unwrap_or_default();
        let rows: Vec<Vec<f64>> = text
            .lines()
            .filter_map(|l| l.strip_prefix(&key)?.strip_prefix('\t'))
            .map(|rest| rest.split('\t').filter_map(|x| x.parse().ok()).collect())
            .filter(|r: &Vec<f64>| r.len() == 3)
            .collect();
        let names = [
            "sat_queries_per_query",
            "conflicts_per_sat",
            "sat_ms_per_query",
        ];
        let fields: Vec<String> = names
            .iter()
            .enumerate()
            .map(|(i, n)| {
                let col = rows.iter().map(|r| r[i]);
                let lo = col.clone().fold(f64::INFINITY, f64::min);
                let hi = col.fold(f64::NEG_INFINITY, f64::max);
                format!("\"{n}\": [{lo}, {hi}]")
            })
            .collect();
        format!("{{\"runs\": {}, {}}}", rows.len(), fields.join(", "))
    }
}

/// A scratch directory removed on drop.
pub struct WorkDir(PathBuf);

impl WorkDir {
    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// What a workload measured. `e2e` and `layers` hold `(name, value)`;
/// metrics a workload leaves unset print as 0.
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub e2e: Vec<(&'static str, f64)>,
    pub layers: Vec<(&'static str, f64)>,
    /// Extra `"key": value` pairs (values already JSON) for the config
    /// line printed before the result.
    pub info: Vec<(&'static str, String)>,
    /// Failed correctness checks; any entry makes the run incorrect.
    pub problems: Vec<String>,
}

impl Report {
    pub fn check(&mut self, ok: bool, problem: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(problem());
        }
    }

    /// The line printed before the result: seed, caps, sizes and
    /// everything the workload added to `info`.
    pub fn config_line(&self, ctx: &Ctx, workload: &str) -> String {
        let mut fields = vec![
            format!("\"workload\": \"{workload}\""),
            format!("\"seed\": {}", ctx.seed),
            format!("\"seconds\": {}", ctx.seconds.as_secs()),
            format!("\"trace\": {}", ctx.trace),
            format!("\"nproc\": {}", ctx.nproc),
            format!("\"engine_threads\": {}", ctx.nproc),
            format!("\"compile_threads\": {}", ctx.nproc),
        ];
        fields.extend(self.info.iter().map(|(k, v)| format!("\"{k}\": {v}")));
        format!("{{\"config\": {{{}}}}}", fields.join(", "))
    }
}

/// Generation seed of every workload's corpus (the `esh bench-scale`
/// seed). The corpus is fixed and `--seed` draws the order it is
/// ingested and queried in: per-seed corpora differ so much in query
/// cost and cache size (the same seed repeats within 10%, two seeds
/// differ by 50%) that no run length here averages it out.
const CORPUS_SEED: u64 = 0x5CA1E;

/// The first `procs` procedures of the scale corpus
/// ([`esh_corpus::scale`]), compiled with at most `ctx.nproc` threads,
/// in an order drawn from `ctx.seed`. Also returns each entry's index in
/// the generator's stream, which names a procedure independently of the
/// order. The benchmark's own work: never timed.
pub fn compile_corpus(ctx: &Ctx, procs: usize) -> (Vec<CompiledProc>, Vec<usize>) {
    let mut stream = Vec::with_capacity(procs);
    stream_scale_corpus_with_threads(&ScaleConfig::new(procs, CORPUS_SEED), ctx.nproc, |p| {
        stream.push(Some(p))
    });
    let order = measure::permutation(stream.len(), ctx.seed);
    let corpus = order
        .iter()
        .map(|&k| stream[k].take().expect("a permutation"))
        .collect();
    (corpus, order)
}

/// Positions in a [`compile_corpus`] corpus of `n` fixed members (the
/// same procedures for every seed), in corpus order.
pub fn fixed_members(order: &[usize], n: usize) -> Vec<usize> {
    let wanted: std::collections::HashSet<usize> = measure::permutation(order.len(), CORPUS_SEED)
        .into_iter()
        .take(n)
        .collect();
    (0..order.len())
        .filter(|i| wanted.contains(&order[*i]))
        .collect()
}

/// A default-config engine with one target per corpus procedure, in
/// corpus order (what `esh index build` builds).
pub fn build_engine(corpus: &[CompiledProc]) -> SimilarityEngine {
    let mut engine = SimilarityEngine::new(EngineConfig::default());
    for p in corpus {
        engine.add_target(p.display(), &p.proc_);
    }
    engine
}

/// One timed set-up of a queryable index: build the engine, write the
/// `.eshx`, open it with the default options (mmap, prune, demand
/// decode).
pub struct Built {
    pub opened: SimilarityEngine,
    pub summary: WriteSummary,
    pub total: Duration,
    pub write: Duration,
    pub open: Duration,
}

pub fn build_and_open(corpus: &[CompiledProc], dir: &Path) -> Result<Built, String> {
    let t0 = Instant::now();
    let engine = build_engine(corpus);
    let t1 = Instant::now();
    let summary =
        esh_index::write_sharded(&engine, dir, TARGETS_PER_SHARD).map_err(|e| e.to_string())?;
    drop(engine);
    let t2 = Instant::now();
    let opened = open(dir)?;
    let t3 = Instant::now();
    Ok(Built {
        opened,
        summary,
        total: t3 - t0,
        write: t2 - t1,
        open: t3 - t2,
    })
}

pub fn open(dir: &Path) -> Result<SimilarityEngine, String> {
    esh_index::open_sharded_with(dir, EshxOpenOptions::default()).map_err(|e| e.to_string())
}

/// Index-size metrics shared by every workload.
pub fn index_sizes(report: &mut Report, summary: &WriteSummary) {
    let procs = summary.targets.max(1) as f64;
    report
        .e2e
        .push(("index_bytes_per_proc", summary.total_bytes() as f64 / procs));
    report.layers.push((
        "index.core_bytes_per_proc",
        summary.core_bytes as f64 / procs,
    ));
    report.layers.push((
        "index.shard_bytes_per_proc",
        summary.shard_bytes as f64 / procs,
    ));
    report.info.push((
        "index",
        format!(
            "{{\"targets\": {}, \"classes\": {}, \"shards\": {}, \"core_bytes\": {}, \
             \"shard_bytes\": {}, \"targets_per_shard\": {TARGETS_PER_SHARD}}}",
            summary.targets,
            summary.classes,
            summary.shards,
            summary.core_bytes,
            summary.shard_bytes
        ),
    ));
}

/// Set-up metrics from the repeated set-ups: `setup_s` and the index
/// write/open medians.
pub fn setup_metrics(report: &mut Report, builds: &[(Duration, Duration, Duration)]) {
    let col = |f: fn(&(Duration, Duration, Duration)) -> Duration| -> Vec<f64> {
        builds.iter().map(|b| f(b).as_secs_f64()).collect()
    };
    report.e2e.push(("setup_s", measure::median(&col(|b| b.0))));
    report
        .layers
        .push(("index.write_s", measure::median(&col(|b| b.1))));
    report
        .layers
        .push(("index.open_ms", measure::median(&col(|b| b.2)) * 1e3));
    report.info.push(("setup_reps", builds.len().to_string()));
}

/// Samples per latency-tail window.
const TAIL_WINDOW: usize = 200;

/// Per-operation latency metrics from samples in completion order. The
/// tail is taken per window of [`TAIL_WINDOW`] consecutive samples (the
/// highest percentile with at least ten samples above it) and the
/// median window is reported, so one stall of the shared machine moves
/// one window, not the metric. With fewer than two windows it is taken
/// over all samples. The percentile, window and counts go beside it.
pub fn latency_metrics(report: &mut Report, samples_ms: &[f64]) {
    let windows: Vec<(u32, f64)> = samples_ms
        .chunks_exact(TAIL_WINDOW)
        .map(measure::tail)
        .collect();
    let (pct, tail, window) = match windows.len() {
        0 | 1 => {
            let (pct, tail) = measure::tail(samples_ms);
            (pct, tail, samples_ms.len())
        }
        _ => {
            let tails: Vec<f64> = windows.iter().map(|w| w.1).collect();
            (windows[0].0, measure::median(&tails), TAIL_WINDOW)
        }
    };
    report
        .e2e
        .push(("latency_p50_ms", measure::median(samples_ms)));
    report.e2e.push(("latency_tail_ms", tail));
    report.info.push((
        "latency_tail",
        format!(
            "{{\"percentile\": {pct}, \"window\": {window}, \"windows\": {}, \"samples\": {}}}",
            windows.len().max(1),
            samples_ms.len()
        ),
    ));
}

/// Digests of one query's ranking, the query's own target excluded.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct Ranking {
    /// Every target's name and GES bits, best first.
    pub digest: u64,
    /// The names of the top [`TOP_N`] matches, best first.
    pub top: u64,
}

impl Ranking {
    pub fn of(scores: &QueryScores, exclude: TargetId) -> Ranking {
        let (mut digest, mut top) = (Digest::default(), Digest::default());
        for (i, s) in scores
            .ranked()
            .iter()
            .filter(|s| s.target != exclude)
            .enumerate()
        {
            digest.bytes(s.name.as_bytes());
            digest.u64(s.ges.to_bits());
            if i < TOP_N {
                top.bytes(s.name.as_bytes());
            }
        }
        Ranking {
            digest: digest.value(),
            top: top.value(),
        }
    }
}

/// Per-query deadline of the untimed correctness checks: a check query
/// deep in the solver's heavy tail is skipped (and counted) rather than
/// letting one query stretch the run by tens of seconds.
pub const CHECK_DEADLINE: Duration = Duration::from_secs(10);

/// Query `qi` untimed: `Ok(None)` when it ran past `deadline`.
pub fn check_query(
    engine: &SimilarityEngine,
    corpus: &[CompiledProc],
    qi: usize,
    deadline: Duration,
) -> Result<Option<QueryScores>, String> {
    let cancel = CancelToken::with_deadline(Instant::now() + deadline);
    match engine.query_cancellable(&corpus[qi].proc_, &cancel) {
        Ok(scores) => Ok(Some(scores)),
        Err(QueryError::Cancelled) => Ok(None),
        Err(e) => Err(format!("query {qi}: {e}")),
    }
}

/// Re-runs each `(query index, ranking)` on a resident engine built
/// straight from the corpus. A different top-[`TOP_N`] is a failed
/// operation. GES bits that differ with the same top matches are
/// counted, not failed: engines built apart can settle a budget-limited
/// SAT query differently, which shifts the query's H0 (see README).
pub fn check_against_resident(
    report: &mut Report,
    corpus: &[CompiledProc],
    checks: &[(usize, Ranking)],
) -> Result<(), String> {
    let reference = build_engine(corpus);
    let (mut bit_mismatches, mut skipped) = (0, 0);
    for &(qi, got) in checks {
        let Some(scores) = check_query(&reference, corpus, qi, CHECK_DEADLINE)? else {
            skipped += 1;
            continue;
        };
        let want = Ranking::of(&scores, TargetId(qi));
        if want.top != got.top {
            report.failed += 1;
            report.problems.push(format!(
                "query {qi}: top matches differ from the resident engine's"
            ));
        } else if want.digest != got.digest {
            bit_mismatches += 1;
        }
    }
    report.info.push((
        "resident_check",
        format!(
            "{{\"queries\": {}, \"skipped_past_deadline\": {skipped}, \"ges_bit_mismatches\": {bit_mismatches}}}",
            checks.len()
        ),
    ));
    Ok(())
}

/// Share of the top [`TOP_N`] matches (self excluded) that compile the
/// same source as query `qi`.
pub fn precision_at_10(scores: &QueryScores, corpus: &[CompiledProc], qi: usize) -> f64 {
    let hits = scores
        .ranked()
        .iter()
        .filter(|s| s.target != TargetId(qi))
        .take(TOP_N)
        .filter(|s| corpus[s.target.0].same_source(&corpus[qi]))
        .count();
    hits as f64 / TOP_N as f64
}

/// Engine counters at one instant, for diffing around calls.
#[derive(Clone, Copy, Default)]
pub struct Counters {
    pub solver: SolverPerf,
    pub prefilter: PrefilterStatsSnapshot,
    pub cache: CacheStats,
    pub shard: ShardStats,
}

impl Counters {
    pub fn of(engine: &SimilarityEngine) -> Counters {
        Counters {
            solver: engine.solver_stats(),
            prefilter: engine.prefilter_stats(),
            cache: engine.cache_stats(),
            shard: engine.shard_stats(),
        }
    }

    /// Adds the change from `before` to `after` (of one engine) to these
    /// counters, so changes over several engines sum.
    pub fn add_change(&mut self, before: &Counters, after: &Counters) {
        let add = |acc: &mut u64, b: u64, a: u64| *acc += a.saturating_sub(b);
        let (s, s0, s1) = (&mut self.solver, &before.solver, &after.solver);
        add(&mut s.sat_queries, s0.sat_queries, s1.sat_queries);
        add(&mut s.conflicts, s0.conflicts, s1.conflicts);
        add(&mut s.sat_time_ns, s0.sat_time_ns, s1.sat_time_ns);
        add(
            &mut s.blast_cache_hits,
            s0.blast_cache_hits,
            s1.blast_cache_hits,
        );
        add(
            &mut s.blast_cache_misses,
            s0.blast_cache_misses,
            s1.blast_cache_misses,
        );
        add(&mut s.solver_resets, s0.solver_resets, s1.solver_resets);
        let (p, p0, p1) = (&mut self.prefilter, &before.prefilter, &after.prefilter);
        add(&mut p.pairs_pruned, p0.pairs_pruned, p1.pairs_pruned);
        add(
            &mut p.sketch_collisions,
            p0.sketch_collisions,
            p1.sketch_collisions,
        );
        add(
            &mut p.exact_fallbacks,
            p0.exact_fallbacks,
            p1.exact_fallbacks,
        );
        add(
            &mut p.ambiguous_probes,
            p0.ambiguous_probes,
            p1.ambiguous_probes,
        );
        add(&mut p.refined_pairs, p0.refined_pairs, p1.refined_pairs);
        add(&mut self.cache.hits, before.cache.hits, after.cache.hits);
        add(
            &mut self.cache.misses,
            before.cache.misses,
            after.cache.misses,
        );
        let (h, h0, h1) = (&mut self.shard, &before.shard, &after.shard);
        add(&mut h.fanout_total, h0.fanout_total, h1.fanout_total);
        add(&mut h.pruned_total, h0.pruned_total, h1.pruned_total);
        add(
            &mut h.classes_decoded_total,
            h0.classes_decoded_total,
            h1.classes_decoded_total,
        );
        add(&mut h.decoded_bytes, h0.decoded_bytes, h1.decoded_bytes);
        // Mapped bytes are a level, not a flow: sum each engine's level.
        h.mapped_bytes += h1.mapped_bytes;
    }
}

/// Per-query layer metrics from the counter change over `queries`
/// queries that took `wall` in total; `classes` is the summed
/// `QueryScores::query_strands`.
pub fn query_layer_metrics(
    report: &mut Report,
    before: &Counters,
    after: &Counters,
    queries: usize,
    wall: Duration,
    classes: usize,
) {
    let q = queries.max(1) as f64;
    let d = |a: u64, b: u64| a.saturating_sub(b) as f64;
    let (s0, s1) = (&before.solver, &after.solver);
    let sat_q = d(s1.sat_queries, s0.sat_queries);
    let sat_ms = d(s1.sat_time_ns, s0.sat_time_ns) / 1e6;
    let blast = d(s1.blast_cache_hits, s0.blast_cache_hits);
    let blast_all = blast + d(s1.blast_cache_misses, s0.blast_cache_misses);
    let wall_ms = wall.as_secs_f64() * 1e3;
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let (p0, p1) = (&before.prefilter, &after.prefilter);
    let (c0, c1) = (&before.cache, &after.cache);
    let lookups = d(c1.hits + c1.misses, c0.hits + c0.misses);
    let pruned = d(p1.pairs_pruned, p0.pairs_pruned);
    let (h0, h1) = (&before.shard, &after.shard);
    report.layers.extend([
        ("solver.sat_queries_per_query", sat_q / q),
        (
            "solver.conflicts_per_sat",
            ratio(d(s1.conflicts, s0.conflicts), sat_q),
        ),
        ("solver.sat_ms_per_query", sat_ms / q),
        ("solver.sat_share", ratio(sat_ms, wall_ms)),
        ("solver.blast_hit_rate", ratio(blast, blast_all)),
        (
            "solver.resets_per_query",
            d(s1.solver_resets, s0.solver_resets) / q,
        ),
        ("engine.nonsat_ms_per_query", (wall_ms - sat_ms) / q),
        ("engine.query_classes_per_query", classes as f64 / q),
        ("prefilter.pruned_frac", ratio(pruned, pruned + lookups)),
        (
            "prefilter.collisions_per_query",
            d(p1.sketch_collisions, p0.sketch_collisions) / q,
        ),
        (
            "prefilter.exact_fallbacks_per_query",
            d(p1.exact_fallbacks, p0.exact_fallbacks) / q,
        ),
        (
            "prefilter.probes_per_query",
            d(p1.ambiguous_probes, p0.ambiguous_probes) / q,
        ),
        (
            "prefilter.refined_pairs_per_query",
            d(p1.refined_pairs, p0.refined_pairs) / q,
        ),
        ("cache.lookups_per_query", lookups / q),
        ("cache.hit_rate", ratio(d(c1.hits, c0.hits), lookups)),
        (
            "shard.fanout_per_query",
            d(h1.fanout_total, h0.fanout_total) / q,
        ),
        (
            "shard.pruned_per_query",
            d(h1.pruned_total, h0.pruned_total) / q,
        ),
        (
            "shard.classes_decoded_per_query",
            d(h1.classes_decoded_total, h0.classes_decoded_total) / q,
        ),
        (
            "shard.decoded_bytes_per_query",
            d(h1.decoded_bytes, h0.decoded_bytes) / q,
        ),
        (
            "shard.decoded_to_mapped",
            ratio(h1.decoded_bytes as f64, h1.mapped_bytes as f64),
        ),
    ]);
}

/// The per-query solver counters `[sat queries, conflicts per SAT query,
/// SAT ms]` over a counter change.
pub fn solver_per_query(before: &Counters, after: &Counters, queries: usize) -> [f64; 3] {
    let q = queries.max(1) as f64;
    let (s0, s1) = (&before.solver, &after.solver);
    let sat = s1.sat_queries.saturating_sub(s0.sat_queries) as f64;
    let conflicts = s1.conflicts.saturating_sub(s0.conflicts) as f64;
    let ms = s1.sat_time_ns.saturating_sub(s0.sat_time_ns) as f64 / 1e6;
    [
        sat / q,
        if sat > 0.0 { conflicts / sat } else { 0.0 },
        ms / q,
    ]
}

/// Self time per operation of each layer in `trace`, plus the tracing
/// overhead: traced over untraced wall time for the same operations.
pub fn trace_metrics(
    report: &mut Report,
    trace: &Trace,
    ops: usize,
    untraced: Duration,
    traced: Duration,
) {
    let ops = ops.max(1) as f64;
    for (layer, secs) in trace.self_seconds() {
        let name = match layer {
            "bench" => "self_ms_per_op.bench",
            "esh-core" => "self_ms_per_op.esh-core",
            "esh-index" => "self_ms_per_op.esh-index",
            "esh-strands" => "self_ms_per_op.esh-strands",
            "esh-serve" => "self_ms_per_op.esh-serve",
            _ => continue,
        };
        report.layers.push((name, secs * 1e3 / ops));
    }
    let overhead = traced.as_secs_f64() / untraced.as_secs_f64().max(1e-9) - 1.0;
    report.layers.push(("trace.overhead_frac", overhead));
    report.info.push((
        "tracing",
        format!(
            "{{\"ops\": {ops}, \"untraced_s\": {}, \"traced_s\": {}}}",
            untraced.as_secs_f64(),
            traced.as_secs_f64()
        ),
    ));
}
