//! `cold-search`: one caller opens a freshly built `.eshx` and queries
//! distinct corpus members once each, self-matches excluded — the
//! paper's "find this procedure's other compilations" use. Shard decode,
//! prefilter and solver do the work; the VCP cache is bypassed. Not in
//! `BENCHMARK.json`: the solver's heavy tail makes it unsteady (README).

use std::collections::HashSet;
use std::time::{Duration, Instant};

use esh_core::{SimilarityEngine, TargetId};
use esh_corpus::CompiledProc;

use crate::common::{self, Counters, Ctx, Ranking, Report, SETUP_REPS};
use crate::measure::{self, Trace};

/// Procedures in the searched corpus.
const PROCS: usize = 300;

/// Consecutive queries per throughput window; `throughput_per_s` is the
/// median window's rate.
const WINDOW: usize = 10;

/// Queries re-run on an independent resident engine after timing (the
/// fastest ones, so the check costs little).
const REFERENCE_QUERIES: usize = 10;

/// Queries slower than this are counted apart as the solver's heavy tail.
const HEAVY_MS: f64 = 1000.0;

/// One answered query: which corpus member, how long, and what it
/// returned.
struct Answer {
    qi: usize,
    ms: f64,
    ranking: Ranking,
    precision: f64,
}

fn answer(engine: &SimilarityEngine, corpus: &[CompiledProc], qi: usize) -> Answer {
    let t = Instant::now();
    let scores = engine.query(&corpus[qi].proc_);
    let ms = measure::ms(t.elapsed());
    Answer {
        qi,
        ms,
        ranking: Ranking::of(&scores, TargetId(qi)),
        precision: common::precision_at_10(&scores, corpus, qi),
    }
}

pub fn run(ctx: &Ctx) -> Result<Report, String> {
    let (corpus, _) = common::compile_corpus(ctx, PROCS);
    let work = ctx.work_dir()?;
    let mut report = Report::default();

    let mut builds = Vec::with_capacity(SETUP_REPS);
    let mut engine = None;
    let mut summary = None;
    for _ in 0..SETUP_REPS {
        // Unmap the previous index before its files are rewritten.
        drop(engine.take());
        let b = common::build_and_open(&corpus, work.path())?;
        builds.push((b.total, b.write, b.open));
        summary = Some(b.summary);
        engine = Some(b.opened);
    }
    common::setup_metrics(&mut report, &builds);
    common::index_sizes(&mut report, &summary.expect("at least one set-up"));

    // Timed phase: passes over the corpus, each over a freshly opened
    // index (cold cache) in its own seeded order, until time is up. The
    // clock stops between passes for the replay check. The memory
    // high-water mark restarts with each pass; the peak is the largest.
    let mut engine = engine.expect("at least one set-up");
    let mut rss_reset = measure::reset_peak_rss();
    let mut peak: f64 = 0.0;
    let mut counted = Counters::default();
    let mut wall = Duration::ZERO;
    let mut answers = Vec::new();
    let mut passes = 0;
    while wall < ctx.seconds {
        if passes > 0 {
            drop(engine);
            rss_reset &= measure::reset_peak_rss();
            let t0 = Instant::now();
            engine = common::open(work.path())?;
            wall += t0.elapsed();
        }
        let order = measure::permutation(corpus.len(), ctx.seed ^ 0xC01D ^ passes);
        let c0 = Counters::of(&engine);
        let first = answers.len();
        for &qi in &order {
            if wall >= ctx.seconds {
                break;
            }
            let a = answer(&engine, &corpus, qi);
            wall += Duration::from_secs_f64(a.ms / 1e3);
            answers.push(a);
        }
        counted.add_change(&c0, &Counters::of(&engine));
        peak = peak.max(measure::peak_rss_mb());
        passes += 1;
        replay(&mut report, &engine, &corpus, &answers[first..]);
    }
    drop(engine);
    let (before, after) = (Counters::default(), counted);

    let n = answers.len();
    let samples: Vec<f64> = answers.iter().map(|a| a.ms).collect();
    common::latency_metrics(&mut report, &samples);
    let rates: Vec<f64> = samples
        .chunks_exact(WINDOW)
        .map(|w| WINDOW as f64 * 1e3 / w.iter().sum::<f64>())
        .collect();
    let mean_rate = n as f64 / wall.as_secs_f64();
    report.e2e.push((
        "throughput_per_s",
        if rates.is_empty() {
            mean_rate
        } else {
            measure::median(&rates)
        },
    ));
    report.e2e.push(("peak_rss_mb", peak));
    report.e2e.push((
        "precision_at_10",
        answers.iter().map(|a| a.precision).sum::<f64>() / n.max(1) as f64,
    ));
    let heavy: Vec<f64> = samples
        .iter()
        .copied()
        .filter(|&ms| ms > HEAVY_MS)
        .collect();
    report.info.push(("corpus_procs", corpus.len().to_string()));
    report.info.push(("queries", n.to_string()));
    report
        .info
        .push(("mean_throughput_per_s", mean_rate.to_string()));
    report.info.push((
        "heavy_queries",
        format!(
            "{{\"over_ms\": {HEAVY_MS}, \"count\": {}, \"total_s\": {}}}",
            heavy.len(),
            heavy.iter().sum::<f64>() / 1e3
        ),
    ));
    report.info.push(("rss_reset", rss_reset.to_string()));
    let solver = common::solver_per_query(&before, &after, n);
    report.info.push((
        "solver_across_runs",
        ctx.solver_across_runs("cold-search", solver),
    ));
    report.info.push(("passes", passes.to_string()));
    report.attempted = n as u64;
    report.check(n > 0, || "no query completed".into());

    // Correctness, 2 (1 is the replay after each pass): an independent
    // resident engine, built straight from the corpus, must agree on the
    // fastest queries' top matches.
    let mut fastest: Vec<&Answer> = answers.iter().collect();
    fastest.sort_by(|a, b| a.ms.total_cmp(&b.ms));
    let checks: Vec<(usize, Ranking)> = fastest
        .iter()
        .take(REFERENCE_QUERIES)
        .map(|a| (a.qi, a.ranking))
        .collect();
    common::check_against_resident(&mut report, &corpus, &checks)?;

    if ctx.trace {
        traced(ctx, &corpus, &answers, wall, work.path(), &mut report)?;
    }
    Ok(report)
}

/// Correctness, 1: replayed on the engine that answered them (now from
/// its VCP cache), a pass's rankings must come back bit for bit.
fn replay(
    report: &mut Report,
    engine: &SimilarityEngine,
    corpus: &[CompiledProc],
    pass: &[Answer],
) {
    for a in pass {
        let again = Ranking::of(&engine.query(&corpus[a.qi].proc_), TargetId(a.qi));
        if again.digest != a.ranking.digest {
            report.failed += 1;
            report
                .problems
                .push(format!("query {} ranks differently when replayed", a.qi));
        }
    }
}

/// The traced phase: the same queries in the same passes, each pass on
/// a freshly opened copy of the index, each call timed as a span and
/// bracketed by counter reads.
fn traced(
    ctx: &Ctx,
    corpus: &[CompiledProc],
    untraced: &[Answer],
    untraced_wall: Duration,
    dir: &std::path::Path,
    report: &mut Report,
) -> Result<(), String> {
    let mut trace = Trace::new();
    let mut counted = Counters::default();
    let t0 = Instant::now();
    let mut classes = 0;
    let mut engine: Option<SimilarityEngine> = None;
    let mut seen = HashSet::new();
    for a in untraced {
        let (qi, q) = (a.qi, Some(a.qi as u64));
        if engine.is_none() || !seen.insert(qi) {
            // A new pass: a fresh, cold engine.
            if let Some(e) = engine.take() {
                counted.add_change(&Counters::default(), &Counters::of(&e));
            }
            let (opened, _) =
                trace.span("esh-index", "open_sharded_with", None, || common::open(dir));
            engine = Some(opened?);
            seen = HashSet::from([qi]);
        }
        let engine = engine.as_ref().expect("opened above");
        let start = trace.now();
        let (scores, call) = trace.span("esh-core", "query", q, || engine.query(&corpus[qi].proc_));
        let ranking = Ranking::of(&scores, TargetId(qi));
        let parent = trace.record("bench", "query", start, trace.now(), None, q);
        trace.set_parent(call, parent);
        classes += scores.query_strands;
        report.check(ranking.top == a.ranking.top, || {
            format!("traced query {qi} ranks differently")
        });
    }
    let wall = t0.elapsed();
    if let Some(e) = engine {
        counted.add_change(&Counters::default(), &Counters::of(&e));
    }
    common::query_layer_metrics(
        report,
        &Counters::default(),
        &counted,
        untraced.len(),
        wall,
        classes,
    );
    common::trace_metrics(report, &trace, untraced.len(), untraced_wall, wall);
    ctx.save_trace("cold-search", &trace)
}
