//! `hot-serve`: an in-process `esh_serve::Server` over a small `.eshx`
//! whose VCP cache a warm-up pass has primed. Pipelined connections
//! (at most `nproc`) cycle a fixed query list in a closed loop, so the
//! daemon's admission, batching and wire path and the cache-hit scoring
//! path do the work while the solver and shard decode sit idle.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use esh_core::TargetId;
use esh_corpus::{CompiledProc, Corpus};
use esh_serve::{
    ranked_matches, Outcome, PipelinedClient, QueryRequest, QueryResponse, RankedMatch,
    ServeConfig, Server,
};

use crate::common::{self, Counters, Ctx, Report, SETUP_REPS, TOP_N};
use crate::measure::{self, Trace};

/// Procedures in the served corpus.
const PROCS: usize = 300;

/// Distinct queries the clients cycle through.
const QUERIES: usize = 32;

/// A list member whose cold answer takes longer is left out of the list.
const LIST_DEADLINE: Duration = Duration::from_secs(2);

/// Completions per throughput window; `throughput_per_s` is the median
/// window's rate.
const WINDOW: usize = 50;

/// Client-side read timeout; the daemon's own deadline is the real one.
const CLIENT_TIMEOUT: Duration = Duration::from_secs(60);

/// One request as its client saw it.
struct Sample {
    start: Instant,
    end: Instant,
    /// Position in the query list.
    k: usize,
    queue_ms: u64,
    server_ms: u64,
    ok: bool,
}

impl Sample {
    fn ms(&self) -> f64 {
        measure::ms(self.end - self.start)
    }
}

fn identical(a: &[RankedMatch], b: &[RankedMatch]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            x.rank == y.rank
                && x.name == y.name
                && x.ges.to_bits() == y.ges.to_bits()
                && x.s_log.to_bits() == y.s_log.to_bits()
                && x.s_vcp.to_bits() == y.s_vcp.to_bits()
        })
}

/// The daemon's engine counters, read from its `/metrics` rendering.
fn served_counters(server: &Server) -> Counters {
    let text = server.metrics();
    let get = |name: &str| -> f64 {
        text.lines()
            .find_map(|l| l.strip_prefix(name)?.strip_prefix(' ')?.trim().parse().ok())
            .unwrap_or(0.0)
    };
    let mut c = Counters::default();
    c.solver.sat_queries = get("esh_sat_queries_total") as u64;
    c.solver.conflicts = get("esh_sat_conflicts_total") as u64;
    c.solver.sat_time_ns = (get("esh_sat_time_ms") * 1e6) as u64;
    c.solver.solver_resets = get("esh_sat_solver_resets_total") as u64;
    c.cache.hits = get("esh_vcp_cache_hits_total") as u64;
    c.cache.misses = get("esh_vcp_cache_misses_total") as u64;
    c.prefilter.pairs_pruned = get("esh_prefilter_pairs_pruned_total") as u64;
    c.prefilter.sketch_collisions = get("esh_prefilter_sketch_collisions_total") as u64;
    c.prefilter.exact_fallbacks = get("esh_prefilter_exact_fallbacks_total") as u64;
    c.prefilter.ambiguous_probes = get("esh_prefilter_ambiguous_probes_total") as u64;
    c.prefilter.refined_pairs = get("esh_prefilter_refined_pairs_total") as u64;
    c.shard.fanout_total = get("esh_shard_fanout_total") as u64;
    c.shard.pruned_total = get("esh_shards_pruned_total") as u64;
    c.shard.classes_decoded_total = get("esh_classes_decoded_total") as u64;
    c.shard.decoded_bytes = get("esh_shard_decoded_bytes") as u64;
    c.shard.mapped_bytes = get("esh_shard_mapped_bytes") as u64;
    c
}

/// Runs `clients` closed-loop connections until `stop` says so, each
/// cycling `list` from its own offset. Returns every request's sample.
fn load(
    addr: &str,
    clients: usize,
    list: &[(String, Vec<RankedMatch>)],
    stop: &(dyn Fn(usize) -> bool + Sync),
) -> Result<Vec<Sample>, String> {
    let sent = std::sync::atomic::AtomicUsize::new(0);
    let per_client: Vec<Result<Vec<Sample>, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let sent = &sent;
                scope.spawn(move || -> Result<Vec<Sample>, String> {
                    let mut client = PipelinedClient::connect(addr, CLIENT_TIMEOUT)
                        .map_err(|e| e.to_string())?;
                    let mut samples = Vec::new();
                    let mut k = c * list.len() / clients;
                    while !stop(sent.fetch_add(1, std::sync::atomic::Ordering::Relaxed)) {
                        let (name, expected) = &list[k % list.len()];
                        let start = Instant::now();
                        let resp: QueryResponse = client
                            .query(&QueryRequest::new(name.as_str()))
                            .map_err(|e| e.to_string())?;
                        let end = Instant::now();
                        let ok = resp.outcome == Outcome::Ok
                            && resp.query.as_deref() == Some(name.as_str())
                            && identical(&resp.matches, expected);
                        samples.push(Sample {
                            start,
                            end,
                            k: k % list.len(),
                            queue_ms: resp.queue_ms,
                            server_ms: resp.latency_ms,
                            ok,
                        });
                        k += 1;
                    }
                    Ok(samples)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let mut all = Vec::new();
    for r in per_client {
        all.extend(r?);
    }
    Ok(all)
}

pub fn run(ctx: &Ctx) -> Result<Report, String> {
    let (corpus, order) = common::compile_corpus(ctx, PROCS);
    let picks = common::fixed_members(&order, QUERIES);
    let work = ctx.work_dir()?;
    let mut report = Report::default();
    let config = ServeConfig {
        addr: "127.0.0.1:0".into(),
        workers: ctx.nproc,
        ..ServeConfig::default()
    };

    // Index build, once: the engine built from the corpus answers the
    // query list cold, and the index is written with the VCP cache those
    // answers filled (`.eshx` persists it), as an operator would build
    // and prime an index before restarting daemons on it. The solver's
    // heavy tail lands here, so it is recorded but kept out of `setup_s`.
    // List members whose cold answer runs past the check deadline are
    // left out of the list.
    let t0 = Instant::now();
    let engine = common::build_engine(&corpus);
    let mut cold = Vec::with_capacity(picks.len());
    let mut kept = Vec::with_capacity(picks.len());
    for &qi in &picks {
        if let Some(scores) = common::check_query(&engine, &corpus, qi, LIST_DEADLINE)? {
            cold.push(ranked_matches(&scores, Some(TargetId(qi)), TOP_N));
            kept.push(qi);
        }
    }
    report.info.push((
        "list_dropped_past_deadline",
        (picks.len() - kept.len()).to_string(),
    ));
    let picks = kept;
    let t1 = Instant::now();
    let summary = esh_index::write_sharded(&engine, work.path(), common::TARGETS_PER_SHARD)
        .map_err(|e| e.to_string())?;
    let write = t1.elapsed();
    drop(engine);
    report
        .info
        .push(("index_build_s", t0.elapsed().as_secs_f64().to_string()));

    // Set-up, repeated: open the index, run the warm-up pass over the
    // query list (these offline answers are the reference the served
    // responses must match bit for bit), start the daemon.
    let mut builds = Vec::with_capacity(SETUP_REPS);
    let mut server: Option<Server> = None;
    let mut list: Vec<(String, Vec<RankedMatch>)> = Vec::new();
    // Query strand classes summed over the list (what each request scores).
    let mut classes = 0;
    for _ in 0..SETUP_REPS {
        if let Some(s) = server.take() {
            s.shutdown();
        }
        let served = Corpus {
            procs: corpus.clone(),
        };
        let t0 = Instant::now();
        let opened = common::open(work.path())?;
        let open = t0.elapsed();
        classes = 0;
        list.clear();
        for &qi in &picks {
            let scores = opened.query(&corpus[qi].proc_);
            classes += scores.query_strands;
            list.push((
                corpus[qi].display(),
                ranked_matches(&scores, Some(TargetId(qi)), TOP_N),
            ));
        }
        server = Some(Server::start(opened, served, config.clone()).map_err(|e| e.to_string())?);
        builds.push((t0.elapsed(), write, open));
    }
    let server = server.expect("at least one set-up");
    common::setup_metrics(&mut report, &builds);
    common::index_sizes(&mut report, &summary);

    // The warmed answers must keep the cold answers' top matches; GES
    // bits may differ (see `common::check_against_resident`).
    let mut bit_mismatches = 0;
    for ((name, warm), cold) in list.iter().zip(&cold) {
        let names = |m: &[RankedMatch]| m.iter().map(|x| x.name.clone()).collect::<Vec<_>>();
        if names(warm) != names(cold) {
            report.failed += 1;
            report
                .problems
                .push(format!("`{name}` ranks differently once warmed"));
        } else if !identical(warm, cold) {
            bit_mismatches += 1;
        }
    }
    report.info.push((
        "warm_cold_check",
        format!(
            "{{\"queries\": {}, \"ges_bit_mismatches\": {bit_mismatches}}}",
            picks.len()
        ),
    ));
    let by_name: HashMap<String, &CompiledProc> = corpus.iter().map(|p| (p.display(), p)).collect();
    let precision = picks
        .iter()
        .zip(&list)
        .map(|(&qi, (_, matches))| {
            let same = |m: &&RankedMatch| by_name[&m.name].same_source(&corpus[qi]);
            matches.iter().filter(same).count() as f64 / TOP_N as f64
        })
        .sum::<f64>()
        / picks.len() as f64;

    // Timed phase.
    let addr = server.local_addr().to_string();
    let clients = ctx.nproc;
    let rss_reset = measure::reset_peak_rss();
    report
        .info
        .push(("rss_at_reset_mb", measure::rss_mb().to_string()));
    let (c0, s0) = (served_counters(&server), server.stats());
    let t0 = Instant::now();
    let deadline = t0 + ctx.seconds;
    let samples = load(&addr, clients, &list, &|_| Instant::now() >= deadline)?;
    let wall = t0.elapsed();
    let peak = measure::peak_rss_mb();
    let (c1, s1) = (served_counters(&server), server.stats());

    let n = samples.len();
    let client_ms: Vec<f64> = samples.iter().map(Sample::ms).collect();
    common::latency_metrics(&mut report, &client_ms);
    // Completion rate over consecutive windows of WINDOW completions;
    // the median window.
    let mut ends: Vec<f64> = samples.iter().map(|s| (s.end - t0).as_secs_f64()).collect();
    ends.sort_by(f64::total_cmp);
    let rates: Vec<f64> = ends
        .iter()
        .step_by(WINDOW)
        .zip(ends.iter().skip(WINDOW).step_by(WINDOW))
        .map(|(a, b)| WINDOW as f64 / (b - a))
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
    report.e2e.push(("precision_at_10", precision));
    report
        .info
        .push(("mean_throughput_per_s", mean_rate.to_string()));
    report.attempted = n as u64;
    let failed = samples.iter().filter(|s| !s.ok).count() as u64;
    report.failed += failed;
    report.check(failed == 0, || {
        format!("{failed} served responses differ from offline")
    });
    report.check(n > 0, || "no request completed".into());
    let misses = c1.cache.misses - c0.cache.misses;
    report.check(misses == 0, || {
        format!("{misses} VCP cache misses after warm-up")
    });
    let sat = c1.solver.sat_queries - c0.solver.sat_queries;
    report.check(sat == 0, || format!("{sat} SAT queries after warm-up"));
    report.info.push(("corpus_procs", corpus.len().to_string()));
    report.info.push(("query_list", picks.len().to_string()));
    report.info.push(("connections", clients.to_string()));
    report
        .info
        .push(("server_workers", config.workers.to_string()));
    report.info.push(("requests", n.to_string()));
    report.info.push(("rss_reset", rss_reset.to_string()));
    let solver = common::solver_per_query(&c0, &c1, n);
    report.info.push((
        "solver_across_runs",
        ctx.solver_across_runs("hot-serve", solver),
    ));

    let median_of =
        |f: fn(&Sample) -> f64| measure::median(&samples.iter().map(f).collect::<Vec<_>>());
    report
        .layers
        .push(("serve.queue_ms_p50", median_of(|s| s.queue_ms as f64)));
    report
        .layers
        .push(("serve.server_ms_p50", median_of(|s| s.server_ms as f64)));
    report.layers.push((
        "serve.wire_ms_p50",
        median_of(|s| s.ms() - s.server_ms as f64),
    ));
    let batches = (s1.batches - s0.batches).max(1) as f64;
    let batched = (s1.batched_queries - s0.batched_queries) as f64;
    report
        .layers
        .push(("serve.batch_occupancy", batched / batches));
    report.layers.push((
        "serve.coalesced_frac",
        (s1.coalesced_queries - s0.coalesced_queries) as f64 / batched.max(1.0),
    ));

    if ctx.trace {
        // The same number of requests again, each recorded as a client
        // span with the daemon's admission-to-response interval as its
        // child.
        let mut trace = Trace::new();
        let c0 = served_counters(&server);
        let t0 = Instant::now();
        let traced = load(&addr, clients, &list, &|i| i >= n)?;
        let traced_wall = t0.elapsed();
        let c1 = served_counters(&server);
        let mut engine_ms = 0.0;
        for s in &traced {
            let q = Some(picks[s.k] as u64);
            let (start, end) = (trace.at(s.start), trace.at(s.end));
            let parent = trace.record("bench", "request", start, end, None, q);
            let server_start = end.saturating_sub(Duration::from_millis(s.server_ms));
            trace.record("esh-serve", "request", server_start, end, Some(parent), q);
            engine_ms += s.ms();
            report.check(s.ok, || {
                format!("traced response for query {} differs", s.k)
            });
        }
        // Each request scores its list entry's classes.
        let traced_classes = traced.len() * classes / picks.len();
        let engine_wall = Duration::from_secs_f64(engine_ms / 1e3);
        common::query_layer_metrics(
            &mut report,
            &c0,
            &c1,
            traced.len(),
            engine_wall,
            traced_classes,
        );
        common::trace_metrics(&mut report, &trace, traced.len(), wall, traced_wall);
        ctx.save_trace("hot-serve", &trace)?;
    }
    server.shutdown();
    Ok(report)
}
