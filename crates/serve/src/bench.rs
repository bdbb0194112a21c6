//! `esh bench-serve`: a loopback load generator for the daemon.
//!
//! Five phases, each exercising one acceptance property:
//!
//! 1. **Correctness under load** — concurrent one-shot clients fire the
//!    same queries the offline engine answered; every response must
//!    carry rankings *byte-identical* (f64 bit patterns included) to the
//!    offline baseline.
//! 2. **Sustained pipelined load** — persistent connections at 4× and
//!    16× the phase-1 concurrency, run once with coalescing disabled
//!    (`batch_max = 1`) and once batched, on identically warmed servers.
//!    Every batched response must stay byte-identical to the offline
//!    baseline, no run may compute a probe sketch or lift a query
//!    strand after its warm-up (the hot path stays free of concrete
//!    evaluation and of strand extraction), every batched
//!    run must coalesce at least one request (the daemon holds no
//!    timed window, so coalescing rests on queueing alone), and in full
//!    mode the batched 16× run must deliver ≥ 2× the unbatched
//!    throughput.
//! 3. **Admission control** — a burst against a one-worker,
//!    one-slot-queue server must produce typed `Overloaded` rejections,
//!    never hangs or silent drops.
//! 4. **Deadlines** — a zero-budget request must come back
//!    `DeadlineExceeded` without touching the verifier.
//! 5. **Observability & drain** — `/healthz` and `/metrics` answer over
//!    HTTP, and a wire `@shutdown` drains the daemon cleanly.
//!
//! Latency quantiles are the client's: every request's send-to-receive
//! time is recorded, and p50, p99 and max are read off those samples by
//! nearest rank. Results land in `BENCH_serve.json` in the working
//! directory.
//! `--smoke` shrinks the client counts for CI but keeps a short
//! sustained phase (batching enabled) so the byte-identity, probe-sketch
//! and lifted-strand gates cover batched execution on every CI run.

use std::time::{Duration, Instant};

use esh_core::{EngineConfig, SimilarityEngine, TargetId};
use esh_corpus::{Corpus, CorpusConfig};

use crate::protocol::{
    http_get, ranked_matches, remote_query, Outcome, PipelinedClient, QueryRequest, RankedMatch,
};
use crate::server::{ServeConfig, Server};

/// Client-side timeout: generous, the server enforces the real deadline.
const CLIENT_TIMEOUT: Duration = Duration::from_secs(30);

/// Builds the engine the daemon serves — one target per corpus
/// procedure, in corpus order, named by display name (the mirror
/// [`Server::start`] checks) — with the shipped configuration, so its
/// matrix passes share the cores the way `esh serve`'s do.
fn engine_over(corpus: &Corpus) -> SimilarityEngine {
    let mut engine = SimilarityEngine::new(EngineConfig::default());
    for p in &corpus.procs {
        engine.add_target(p.display(), &p.proc_);
    }
    engine
}

/// Distinct CVE query display names present in the corpus, capped at
/// `n`. Using display-name substrings mirrors real CLI usage.
fn query_names(corpus: &Corpus, n: usize) -> Vec<String> {
    let mut names: Vec<String> = corpus
        .procs
        .iter()
        .filter(|p| p.cve.is_some())
        .map(|p| p.display())
        .collect();
    names.sort();
    names.dedup();
    names.truncate(n);
    names
}

/// Byte-identical comparison: rank, name, and the bit pattern of every
/// score must agree.
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

/// `[p50, p99, max]` in ms of one phase's client-side latencies, each
/// the sample at nearest rank `ceil(p·n)`; an error unless
/// `p50 ≤ p99 ≤ max` (which an empty phase fails too).
fn quantiles(what: &str, mut samples: Vec<Duration>) -> Result<[f64; 3], String> {
    samples.sort_unstable();
    let n = samples.len() as f64;
    let q = [0.5, 0.99, 1.0].map(|p: f64| {
        let rank = (p * n).ceil().max(1.0) as usize;
        samples
            .get(rank - 1)
            .map_or(f64::NAN, |d| d.as_secs_f64() * 1e3)
    });
    if q[0] <= q[1] && q[1] <= q[2] {
        Ok(q)
    } else {
        Err(format!(
            "{what}: client latency quantiles {q:?} out of order"
        ))
    }
}

/// The value of the label-free series `name` in a `/metrics` payload.
fn metric(text: &str, name: &str) -> Option<f64> {
    text.lines()
        .find_map(|l| l.strip_prefix(name)?.strip_prefix(' ')?.trim().parse().ok())
}

/// Counters a warmed daemon must hold still: serving never computes a
/// probe sketch (every probed class keeps its own) and never lifts a
/// query strand (corpus members are scored from their target records).
const STILL_AFTER_WARMUP: [&str; 2] = [
    "esh_prefilter_probe_sketches_total",
    "esh_query_strands_lifted_total",
];

/// The daemon's [`STILL_AFTER_WARMUP`] counters, scraped from `/metrics`.
fn still_counters(addr: &str) -> Result<[f64; 2], String> {
    let (_, body) =
        http_get(addr, "/metrics", CLIENT_TIMEOUT).map_err(|e| format!("metrics probe: {e}"))?;
    let get = |name: &str| metric(&body, name).ok_or_else(|| format!("/metrics has no {name}"));
    Ok([get(STILL_AFTER_WARMUP[0])?, get(STILL_AFTER_WARMUP[1])?])
}

/// One sustained-load run: fixed client count, fixed batching mode.
struct Sustained {
    label: &'static str,
    clients: usize,
    batch_max: usize,
    requests: usize,
    throughput_rps: f64,
    latency: [f64; 3],
    batches: u64,
    coalesced: u64,
    occupancy_hwm: u64,
    avg_occupancy: f64,
}

impl Sustained {
    fn json(&self) -> String {
        format!(
            "{{ \"phase\": \"{label}\", \"clients\": {clients}, \
             \"batch_max\": {bmax}, \"requests\": {req}, \
             \"identical_to_offline\": true, \
             \"throughput_rps\": {rps:.1}, \"p50_ms\": {p50:.3}, \
             \"p99_ms\": {p99:.3}, \"max_ms\": {max:.3}, \
             \"batches\": {batches}, \"avg_batch_occupancy\": {avg:.2}, \
             \"batch_occupancy_high_water\": {hwm}, \
             \"coalesced\": {coal} }}",
            label = self.label,
            clients = self.clients,
            bmax = self.batch_max,
            req = self.requests,
            rps = self.throughput_rps,
            p50 = self.latency[0],
            p99 = self.latency[1],
            max = self.latency[2],
            batches = self.batches,
            avg = self.avg_occupancy,
            hwm = self.occupancy_hwm,
            coal = self.coalesced,
        )
    }
}

/// Drives one sustained run: `clients` persistent pipelined connections,
/// each keeping up to `queries.len()` requests in flight, every response
/// checked byte-identical against the offline baseline. The server is
/// warmed with one pass over the query set first, so batched and
/// unbatched runs compare steady-state serving rather than first-touch
/// verifier cost — and the run fails if it computes a single probe
/// sketch or lifts a single query strand after that pass.
#[allow(clippy::too_many_arguments)]
fn sustained_phase(
    corpus: &Corpus,
    queries: &[String],
    baselines: &[Vec<RankedMatch>],
    top_n: usize,
    label: &'static str,
    clients: usize,
    reps: usize,
    batch_max: usize,
) -> Result<Sustained, String> {
    let request_for = |qi: usize| QueryRequest {
        query: queries[qi].clone(),
        top_n: Some(top_n as u64),
        // Generous explicit budget: at high unbatched concurrency the
        // tail request legitimately queues for several seconds, and this
        // phase measures throughput, not deadline enforcement.
        deadline_ms: Some(600_000),
    };
    let server = Server::start(
        engine_over(corpus),
        corpus.clone(),
        ServeConfig {
            addr: "127.0.0.1:0".into(),
            workers: clients,
            queue_capacity: clients.max(8),
            batch_max,
            ..ServeConfig::default()
        },
    )
    .map_err(|e| format!("starting sustained server ({label}): {e}"))?;
    let addr = server.local_addr().to_string();

    let mut warm = PipelinedClient::connect(&addr, CLIENT_TIMEOUT)
        .map_err(|e| format!("sustained {label} warmup connect: {e}"))?;
    for qi in 0..queries.len() {
        let resp = warm
            .query(&request_for(qi))
            .map_err(|e| format!("sustained {label} warmup query {qi}: {e}"))?;
        if resp.outcome != Outcome::Ok {
            return Err(format!(
                "sustained {label} warmup query {qi}: {:?}",
                resp.outcome
            ));
        }
    }
    drop(warm);
    let warm_counters = still_counters(&addr)?;

    let per_client = reps * queries.len();
    let t0 = Instant::now();
    let samples = std::thread::scope(|scope| -> Result<Vec<Duration>, String> {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let (addr, baselines, request_for) = (&addr, baselines, &request_for);
                scope.spawn(move || -> Result<Vec<Duration>, String> {
                    let mut client = PipelinedClient::connect(addr, CLIENT_TIMEOUT)
                        .map_err(|e| format!("sustained client {c} connect: {e}"))?;
                    // Offset the cycle per client so different names are
                    // in flight concurrently — coalescing has to earn its
                    // keep on a mixed stream, not a single hot query.
                    let pick = |i: usize| (c + i) % baselines.len();
                    let window = baselines.len().min(per_client);
                    // Responses come back in request order, so request
                    // `i`'s latency runs from `sent[i]` to its `recv`.
                    let mut sent = Vec::with_capacity(per_client);
                    let mut latencies = Vec::with_capacity(per_client);
                    for i in 0..window {
                        sent.push(Instant::now());
                        client
                            .send(&request_for(pick(i)))
                            .map_err(|e| format!("sustained client {c} send {i}: {e}"))?;
                    }
                    for i in 0..per_client {
                        let resp = client
                            .recv()
                            .map_err(|e| format!("sustained client {c} recv {i}: {e}"))?;
                        latencies.push(sent[i].elapsed());
                        if resp.outcome != Outcome::Ok {
                            return Err(format!(
                                "sustained client {c} response {i}: {:?} ({:?})",
                                resp.outcome, resp.error
                            ));
                        }
                        if !identical(&resp.matches, &baselines[pick(i)]) {
                            return Err(format!(
                                "sustained client {c} response {i}: rankings diverged \
                                 from the offline baseline"
                            ));
                        }
                        let next = i + window;
                        if next < per_client {
                            sent.push(Instant::now());
                            client
                                .send(&request_for(pick(next)))
                                .map_err(|e| format!("sustained client {c} send {next}: {e}"))?;
                        }
                    }
                    Ok(latencies)
                })
            })
            .collect();
        let mut samples = Vec::new();
        for h in handles {
            samples.extend(h.join().expect("sustained client panicked")?);
        }
        Ok(samples)
    })?;
    let elapsed = t0.elapsed();
    let requests = clients * per_client;
    let after = still_counters(&addr)?;
    for ((name, before), after) in STILL_AFTER_WARMUP.iter().zip(warm_counters).zip(after) {
        if after > before {
            return Err(format!(
                "sustained {label}: {name} rose by {} after warm-up",
                after - before
            ));
        }
    }

    let ack = remote_query(&addr, &QueryRequest::new("@shutdown"), CLIENT_TIMEOUT)
        .map_err(|e| format!("sustained {label} @shutdown: {e}"))?;
    if ack.outcome != Outcome::ShuttingDown {
        return Err(format!(
            "sustained {label} @shutdown acknowledged with {:?}",
            ack.outcome
        ));
    }
    let stats = server.join();
    let expected_ok = (requests + queries.len()) as u64; // + warmup
    if stats.ok != expected_ok {
        return Err(format!(
            "sustained {label} answered {} ok, expected {expected_ok}",
            stats.ok
        ));
    }
    Ok(Sustained {
        label,
        clients,
        batch_max,
        requests,
        throughput_rps: requests as f64 / elapsed.as_secs_f64().max(1e-9),
        latency: quantiles(&format!("sustained {label}"), samples)?,
        batches: stats.batches,
        coalesced: stats.coalesced_queries,
        occupancy_hwm: stats.batch_occupancy_hwm,
        avg_occupancy: if stats.batches == 0 {
            0.0
        } else {
            stats.batched_queries as f64 / stats.batches as f64
        },
    })
}

/// Runs the full bench and writes `BENCH_serve.json`. `smoke` shrinks
/// the load for CI. Returns an error on any property violation.
pub fn run(smoke: bool) -> Result<(), String> {
    let t0 = Instant::now();
    let (clients, repeats, n_queries) = if smoke { (2, 2, 2) } else { (4, 5, 4) };
    let top_n = 10usize;

    eprintln!("bench-serve: building corpus...");
    let corpus = Corpus::build(&CorpusConfig::small());
    let queries = query_names(&corpus, n_queries);
    if queries.len() < n_queries {
        return Err(format!(
            "corpus has only {} CVE queries, need {n_queries}",
            queries.len()
        ));
    }

    // Offline baseline: the rankings `esh query` would print.
    eprintln!("bench-serve: computing offline baselines...");
    let offline = engine_over(&corpus);
    let baselines: Vec<Vec<RankedMatch>> = queries
        .iter()
        .map(|q| {
            let qi = corpus
                .procs
                .iter()
                .position(|p| p.display().contains(q.as_str()))
                .expect("query name came from the corpus");
            let scores = offline.query(&corpus.procs[qi].proc_);
            ranked_matches(&scores, Some(TargetId(qi)), top_n)
        })
        .collect();

    // Phase 1: sustained concurrent load, byte-identical responses.
    eprintln!(
        "bench-serve: load phase ({clients} clients x {repeats} reps x {} queries)...",
        queries.len()
    );
    let server = Server::start(
        engine_over(&corpus),
        corpus.clone(),
        ServeConfig {
            addr: "127.0.0.1:0".into(),
            workers: 2,
            queue_capacity: 64,
            ..ServeConfig::default()
        },
    )
    .map_err(|e| format!("starting load server: {e}"))?;
    let addr = server.local_addr().to_string();

    let load_start = Instant::now();
    let total_requests = clients * repeats * queries.len();
    let samples = std::thread::scope(|scope| -> Result<Vec<Duration>, String> {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let (addr, queries, baselines) = (&addr, &queries, &baselines);
                scope.spawn(move || -> Result<Vec<Duration>, String> {
                    let mut latencies = Vec::with_capacity(repeats * queries.len());
                    for r in 0..repeats {
                        for (qi, q) in queries.iter().enumerate() {
                            let request = QueryRequest {
                                query: q.clone(),
                                top_n: Some(top_n as u64),
                                deadline_ms: None,
                            };
                            let sent = Instant::now();
                            let resp = remote_query(addr, &request, CLIENT_TIMEOUT)
                                .map_err(|e| format!("client {c} rep {r} query {qi}: {e}"))?;
                            latencies.push(sent.elapsed());
                            if resp.outcome != Outcome::Ok {
                                return Err(format!(
                                    "client {c} rep {r} query {qi}: outcome {:?} ({:?})",
                                    resp.outcome, resp.error
                                ));
                            }
                            if !identical(&resp.matches, &baselines[qi]) {
                                return Err(format!(
                                    "client {c} rep {r} query {qi}: rankings diverged \
                                     from the offline baseline"
                                ));
                            }
                        }
                    }
                    Ok(latencies)
                })
            })
            .collect();
        let mut samples = Vec::new();
        for h in handles {
            samples.extend(h.join().expect("client thread panicked")?);
        }
        Ok(samples)
    })?;
    let load_elapsed = load_start.elapsed();
    let [p50, p99, max] = quantiles("load phase", samples)?;

    // Phase 5a (same server, still warm): observability probes.
    let (status, body) =
        http_get(&addr, "/healthz", CLIENT_TIMEOUT).map_err(|e| format!("healthz probe: {e}"))?;
    if status != 200 || body.trim() != "ok" {
        return Err(format!("healthz returned {status} {body:?}"));
    }
    let (status, metrics) =
        http_get(&addr, "/metrics", CLIENT_TIMEOUT).map_err(|e| format!("metrics probe: {e}"))?;
    if status != 200 || !metrics.contains("esh_requests_total{outcome=\"ok\"}") {
        return Err(format!(
            "metrics returned {status} without request counters"
        ));
    }

    // Phase 5b: graceful drain over the wire.
    let ack = remote_query(&addr, &QueryRequest::new("@shutdown"), CLIENT_TIMEOUT)
        .map_err(|e| format!("@shutdown request: {e}"))?;
    if ack.outcome != Outcome::ShuttingDown {
        return Err(format!("@shutdown acknowledged with {:?}", ack.outcome));
    }
    let load_stats = server.join();
    if load_stats.ok != total_requests as u64 {
        return Err(format!(
            "load server answered {} ok, expected {total_requests}",
            load_stats.ok
        ));
    }
    let throughput = total_requests as f64 / load_elapsed.as_secs_f64().max(1e-9);
    // The serve engine's cross-query cache hit rate, scraped from the
    // /metrics payload fetched while the server was still up.
    let hit_rate = metric(&metrics, "esh_vcp_cache_hit_rate").unwrap_or(0.0);
    eprintln!(
        "bench-serve: load ok ({total_requests} requests, {throughput:.1} req/s, \
         p50 {p50:.1}ms p99 {p99:.1}ms max {max:.1}ms)"
    );

    // Phase 2: sustained pipelined load, unbatched vs batched. Each run
    // is a fresh warmed server; every batched run must coalesce, and the
    // batched 16× run carries the ≥2× throughput gate (full mode only —
    // smoke keeps the byte-identity and coalescing gates but is too
    // short for stable throughput ratios).
    let batched_max = 16;
    let sustained_runs: &[(&'static str, usize, usize)] = if smoke {
        &[("16x", 16, 1)]
    } else {
        &[("4x", 16, 2), ("16x", 64, 2)]
    };
    let mut sustained: Vec<Sustained> = Vec::new();
    let mut speedup_16x = 0.0f64;
    for &(label, sustained_clients, reps) in sustained_runs {
        eprintln!(
            "bench-serve: sustained {label} ({sustained_clients} pipelined clients, \
             unbatched then batched)..."
        );
        let unbatched = sustained_phase(
            &corpus,
            &queries,
            &baselines,
            top_n,
            label,
            sustained_clients,
            reps,
            1,
        )?;
        let batched = sustained_phase(
            &corpus,
            &queries,
            &baselines,
            top_n,
            label,
            sustained_clients,
            reps,
            batched_max,
        )?;
        let speedup = batched.throughput_rps / unbatched.throughput_rps.max(1e-9);
        eprintln!(
            "bench-serve: sustained {label} ok (unbatched {:.1} req/s, batched {:.1} req/s, \
             {speedup:.2}x, avg occupancy {:.1}, coalesced {})",
            unbatched.throughput_rps,
            batched.throughput_rps,
            batched.avg_occupancy,
            batched.coalesced
        );
        if batched.coalesced == 0 {
            return Err(format!(
                "sustained {label} batched run coalesced no request ({} batches)",
                batched.batches
            ));
        }
        if label == "16x" {
            speedup_16x = speedup;
        }
        sustained.push(unbatched);
        sustained.push(batched);
    }
    if !smoke && speedup_16x < 2.0 {
        return Err(format!(
            "sustained 16x batched throughput is only {speedup_16x:.2}x the unbatched \
             baseline, need >= 2x"
        ));
    }

    // Phase 3: admission control. One worker pinned by a stalled
    // connection (it sends nothing, so the worker blocks until the read
    // timeout), one queue slot filled the same way; every further
    // request must be rejected as Overloaded.
    eprintln!("bench-serve: overload phase...");
    let server = Server::start(
        engine_over(&corpus),
        corpus.clone(),
        ServeConfig {
            addr: "127.0.0.1:0".into(),
            workers: 1,
            queue_capacity: 1,
            read_timeout_ms: 3_000,
            ..ServeConfig::default()
        },
    )
    .map_err(|e| format!("starting overload server: {e}"))?;
    let addr = server.local_addr().to_string();
    let stall_worker = std::net::TcpStream::connect(&addr).map_err(|e| e.to_string())?;
    // Stagger the stalls so the worker pops the first (and blocks on its
    // silent socket) before the second arrives to occupy the queue slot.
    std::thread::sleep(Duration::from_millis(200));
    let stall_queue = std::net::TcpStream::connect(&addr).map_err(|e| e.to_string())?;
    std::thread::sleep(Duration::from_millis(200));
    let burst = if smoke { 4 } else { 8 };
    let mut overloaded = 0usize;
    for _ in 0..burst {
        let resp = remote_query(&addr, &QueryRequest::new(&queries[0]), CLIENT_TIMEOUT)
            .map_err(|e| format!("overload probe: {e}"))?;
        match resp.outcome {
            Outcome::Overloaded => overloaded += 1,
            Outcome::Ok => {}
            other => return Err(format!("overload phase saw {other:?}")),
        }
    }
    drop(stall_worker);
    drop(stall_queue);
    let overload_stats = server.shutdown();
    if overloaded == 0 {
        return Err("overload phase produced no Overloaded rejections".into());
    }
    if overload_stats.queue_depth_hwm > 1 {
        return Err(format!(
            "queue bound violated: high-water {} > capacity 1",
            overload_stats.queue_depth_hwm
        ));
    }
    eprintln!("bench-serve: overload ok ({overloaded}/{burst} rejected)");

    // Phase 4: deadlines. A zero-budget request expires in the queue.
    eprintln!("bench-serve: deadline phase...");
    let server = Server::start(
        engine_over(&corpus),
        corpus.clone(),
        ServeConfig {
            addr: "127.0.0.1:0".into(),
            workers: 1,
            queue_capacity: 8,
            ..ServeConfig::default()
        },
    )
    .map_err(|e| format!("starting deadline server: {e}"))?;
    let addr = server.local_addr().to_string();
    let resp = remote_query(
        &addr,
        &QueryRequest {
            query: queries[0].clone(),
            top_n: None,
            deadline_ms: Some(0),
        },
        CLIENT_TIMEOUT,
    )
    .map_err(|e| format!("deadline probe: {e}"))?;
    if resp.outcome != Outcome::DeadlineExceeded {
        return Err(format!("zero deadline returned {:?}", resp.outcome));
    }
    let deadline_stats = server.shutdown();
    if deadline_stats.deadline_exceeded != 1 {
        return Err(format!(
            "deadline counter reads {}, expected 1",
            deadline_stats.deadline_exceeded
        ));
    }
    eprintln!("bench-serve: deadline ok");

    let sustained_json = sustained
        .iter()
        .map(|s| format!("    {}", s.json()))
        .collect::<Vec<_>>()
        .join(",\n");
    let json = format!(
        "{{\n  \"bench\": \"serve\",\n  \"mode\": \"{mode}\",\n  \
         \"corpus_procs\": {procs},\n  \"queries\": {nq},\n  \
         \"clients\": {clients},\n  \"requests\": {total_requests},\n  \
         \"identical_to_offline\": true,\n  \
         \"throughput_rps\": {throughput:.1},\n  \
         \"p50_ms\": {p50:.3},\n  \"p99_ms\": {p99:.3},\n  \"max_ms\": {max:.3},\n  \
         \"queue_depth_high_water\": {hwm},\n  \
         \"sustained\": [\n{sustained_json}\n  ],\n  \
         \"sustained_speedup_16x\": {speedup_16x:.2},\n  \
         \"overload_burst\": {burst},\n  \"overloaded\": {overloaded},\n  \
         \"deadline_exceeded\": {dl},\n  \
         \"serve_vcp_cache_hit_rate\": {hit_rate:.4},\n  \
         \"elapsed_ms\": {elapsed}\n}}\n",
        mode = if smoke { "smoke" } else { "full" },
        procs = corpus.procs.len(),
        nq = queries.len(),
        hwm = load_stats.queue_depth_hwm,
        speedup_16x = speedup_16x,
        dl = deadline_stats.deadline_exceeded,
        elapsed = t0.elapsed().as_millis(),
    );
    std::fs::write("BENCH_serve.json", &json)
        .map_err(|e| format!("writing BENCH_serve.json: {e}"))?;
    println!("{json}");
    println!("bench-serve: all phases passed; wrote BENCH_serve.json");
    Ok(())
}
