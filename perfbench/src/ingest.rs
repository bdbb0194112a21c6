//! `ingest`: a precompiled scale corpus streamed through `add_target`,
//! then `write_sharded`, then `open_sharded_with` — the write side of
//! the `esh-core`/`esh-index` layers the other workloads read. Strand
//! extraction, lifting, sketching and the index writer do the work; no
//! solver, no daemon.

use std::path::Path;
use std::time::{Duration, Instant};

use esh_core::{EngineConfig, SimilarityEngine, TargetId};
use esh_corpus::CompiledProc;
use esh_index::WriteSummary;

use crate::common::{self, Ctx, Ranking, Report, SETUP_REPS};
use crate::measure::{self, Trace};

/// Procedures ingested per round.
const PROCS: usize = 1000;

/// Queries against the ingested index, after timing, for the ranking
/// check and `precision_at_10`.
const QUERIES: usize = 8;

/// One ingest round: every procedure through `add_target`, the index
/// written and opened again. With a trace, each call is a span and the
/// strand layer's extract and lift calls are made (and timed) beside
/// `add_target`. Returns the per-`add_target` latencies and the summary.
fn round(
    corpus: &[CompiledProc],
    dir: &Path,
    mut trace: Option<&mut Trace>,
) -> Result<(Vec<f64>, WriteSummary), String> {
    let round_start = trace.as_ref().map(|t| t.now());
    let mut spans = Vec::new();
    let mut engine = SimilarityEngine::new(EngineConfig::default());
    let mut add_ms = Vec::with_capacity(corpus.len());
    for (i, p) in corpus.iter().enumerate() {
        let name = p.display();
        if let Some(t) = trace.as_deref_mut() {
            let q = Some(i as u64);
            let (strands, s) = t.span("esh-strands", "extract_proc_strands", q, || {
                esh_strands::extract_proc_strands(&p.proc_)
            });
            spans.push(s);
            let (_, s) = t.span("esh-strands", "lift_strand", q, || {
                strands
                    .iter()
                    .map(esh_strands::lift_strand)
                    .collect::<Vec<_>>()
            });
            spans.push(s);
        }
        let t0 = Instant::now();
        engine.add_target(name, &p.proc_);
        let elapsed = t0.elapsed();
        add_ms.push(measure::ms(elapsed));
        if let Some(t) = trace.as_deref_mut() {
            let end = t.now();
            spans.push(t.record(
                "esh-core",
                "add_target",
                end.saturating_sub(elapsed),
                end,
                None,
                Some(i as u64),
            ));
        }
    }
    let (summary, opened) = match trace.as_deref_mut() {
        Some(t) => {
            let (summary, s) = t.span("esh-index", "write_sharded", None, || {
                esh_index::write_sharded(&engine, dir, common::TARGETS_PER_SHARD)
            });
            spans.push(s);
            drop(engine);
            let (opened, s) = t.span("esh-index", "open_sharded_with", None, || common::open(dir));
            spans.push(s);
            (summary, opened)
        }
        None => {
            let summary = esh_index::write_sharded(&engine, dir, common::TARGETS_PER_SHARD);
            drop(engine);
            (summary, common::open(dir))
        }
    };
    let summary = summary.map_err(|e| e.to_string())?;
    let opened = opened?;
    if opened.target_count() != corpus.len() || opened.class_count() != summary.classes {
        return Err(format!(
            "reopened index holds {} targets / {} classes, wrote {} / {}",
            opened.target_count(),
            opened.class_count(),
            corpus.len(),
            summary.classes
        ));
    }
    if let (Some(t), Some(start)) = (trace, round_start) {
        let parent = t.record("bench", "round", start, t.now(), None, None);
        for s in spans {
            t.set_parent(s, parent);
        }
    }
    Ok((add_ms, summary))
}

pub fn run(ctx: &Ctx) -> Result<Report, String> {
    let (corpus, order) = common::compile_corpus(ctx, PROCS);
    let procs = corpus.len();
    let work = ctx.work_dir()?;
    let mut report = Report::default();

    let mut builds = Vec::with_capacity(SETUP_REPS);
    let mut summary = None;
    for _ in 0..SETUP_REPS {
        let b = common::build_and_open(&corpus, work.path())?;
        builds.push((b.total, b.write, b.open));
        summary = Some(b.summary);
    }
    let summary = summary.expect("at least one set-up");
    common::setup_metrics(&mut report, &builds);
    common::index_sizes(&mut report, &summary);

    // Timed phase: whole rounds until time is up.
    let rss_reset = measure::reset_peak_rss();
    report
        .info
        .push(("rss_at_reset_mb", measure::rss_mb().to_string()));
    let t0 = Instant::now();
    let mut add_ms = Vec::new();
    let mut rates = Vec::new();
    let mut rounds = 0;
    while t0.elapsed() < ctx.seconds {
        let r0 = Instant::now();
        let (ms, s) = round(&corpus, work.path(), None)?;
        rates.push(procs as f64 / r0.elapsed().as_secs_f64());
        add_ms.extend(ms);
        rounds += 1;
        if s != summary {
            report.failed += 1;
            report
                .problems
                .push(format!("round {rounds} wrote a different index: {s:?}"));
        }
    }
    let wall = t0.elapsed();
    let peak = measure::peak_rss_mb();

    common::latency_metrics(&mut report, &add_ms);
    report
        .e2e
        .push(("throughput_per_s", measure::median(&rates)));
    report.e2e.push(("peak_rss_mb", peak));
    report.attempted = rounds as u64;
    report.info.push(("corpus_procs", procs.to_string()));
    report.info.push(("rounds", rounds.to_string()));
    report.info.push((
        "mean_throughput_per_s",
        ((rounds * procs) as f64 / wall.as_secs_f64()).to_string(),
    ));
    report.info.push(("check_queries", QUERIES.to_string()));
    report.info.push(("rss_reset", rss_reset.to_string()));
    report.layers.push((
        "strands.classes_per_proc",
        summary.classes as f64 / procs as f64,
    ));

    if ctx.trace {
        traced(ctx, &corpus, rounds, wall, work.path(), &mut report)?;
    }

    // Correctness and precision: the last written index must rank like
    // a resident engine built straight from the corpus.
    let opened = common::open(work.path())?;
    let mut precision = 0.0;
    let mut checks = Vec::with_capacity(QUERIES);
    for qi in common::fixed_members(&order, QUERIES) {
        if let Some(scores) = common::check_query(&opened, &corpus, qi, common::CHECK_DEADLINE)? {
            precision += common::precision_at_10(&scores, &corpus, qi);
            checks.push((qi, Ranking::of(&scores, TargetId(qi))));
        }
    }
    drop(opened);
    common::check_against_resident(&mut report, &corpus, &checks)?;
    report.check(!checks.is_empty(), || {
        "every check query ran past its deadline".into()
    });
    report
        .e2e
        .push(("precision_at_10", precision / checks.len().max(1) as f64));
    Ok(report)
}

/// The traced phase: as many rounds again, every layer call a span.
fn traced(
    ctx: &Ctx,
    corpus: &[CompiledProc],
    rounds: usize,
    untraced_wall: Duration,
    dir: &Path,
    report: &mut Report,
) -> Result<(), String> {
    let mut trace = Trace::new();
    let t0 = Instant::now();
    for _ in 0..rounds {
        round(corpus, dir, Some(&mut trace))?;
    }
    let wall = t0.elapsed();
    let procs = (rounds * corpus.len()).max(1) as f64;
    let us = |name: &str| trace.total(name) * 1e6 / procs;
    report
        .layers
        .push(("strands.extract_us_per_proc", us("extract_proc_strands")));
    report
        .layers
        .push(("strands.lift_us_per_proc", us("lift_strand")));
    report
        .layers
        .push(("engine.add_target_us", us("add_target")));
    common::trace_metrics(report, &trace, rounds, untraced_wall, wall);
    ctx.save_trace("ingest", &trace)
}
