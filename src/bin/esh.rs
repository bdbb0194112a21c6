//! `esh` — command-line binary similarity search, in the shape of the
//! paper's released tool: build a corpus, then query procedures against it.
//!
//! ```text
//! esh build-corpus [smoke|default|paper] <corpus.json>
//! esh corpus gen --procs N [--seed S] [--out corpus.json] [--threads N]
//! esh search <corpus.json> <query-substring> [top_n]
//! esh index build <corpus.json> <index.eshx> [targets-per-shard]
//! esh query --index <index.eshx> <corpus.json> <query-substring>
//!           [top_n] [--json] [--no-prefilter]
//! esh query --remote <addr> <query-substring> [top_n] [--json]
//! esh serve --index <index.eshx> <corpus.json> [--addr A] [--workers N]
//!           [--queue N] [--deadline-ms N] [--threads N]
//!           [--batch-max N] [--batch-window-ms N] [--shard-budget-mb N]
//! esh bench-serve [--smoke]
//! esh bench-prefilter [--smoke]
//! esh bench-rankquality [--smoke]
//! esh bench-scale [--smoke] [--threads N] [--no-mmap] [--max-procs N]
//! esh stats <corpus.json>
//! esh pair <corpus.json> <query-substring> <target-substring>
//! ```
//!
//! `index build` persists the engine's derived corpus state (strand
//! classes, signatures, hashes, lifted procedures) as a sharded binary
//! `.eshx` index (format v6); `query --index` opens it — skipping
//! decomposition/lifting of every target — runs the query and reports
//! VCP-cache statistics. Indexes are immutable once written: a warm
//! cache belongs to a long-running `serve`.
//!
//! `serve` turns the same engine into a long-running daemon: index
//! opened once, queries answered concurrently over pipelined
//! newline-delimited JSON with bounded admission, per-request deadlines,
//! batch coalescing (`--batch-max` / `--batch-window-ms`) and
//! `/metrics`.
//! `query --remote` is the matching client; `--json` prints the shared
//! machine-readable response schema from either path. `bench-serve`
//! load-tests the daemon over loopback and writes `BENCH_serve.json`;
//! `bench-prefilter` compares the sketch-prefiltered engine against the
//! exhaustive one and writes `BENCH_prefilter.json`; `bench-rankquality`
//! scores the pruned ranking against the exhaustive one (top-K agreement,
//! Kendall tau, ROC/CROC — see `docs/RANK_QUALITY.md`) and writes
//! `BENCH_rankquality.json`.
//!
//! `query --index ... --no-prefilter` disables the semantic-sketch tier
//! for that one query — the escape hatch when a sketch-estimated pair
//! must be re-checked exactly; output is byte-identical to an engine
//! built without the tier.
//!
//! The **scale tier**: `corpus gen` streams a seeded synthetic corpus
//! (10k+ procedures across the 21-configuration compiler matrix) without
//! materializing it in memory (`--threads` caps the compile pool); index
//! shards mmap lazily at query time and decode *per procedure* on
//! demand, can be skipped wholesale by the sketch-band sidecar, and are
//! evicted LRU under `serve --shard-budget-mb`; `bench-scale` measures
//! build throughput, cold-load time (mmap vs the `--no-mmap` buffered
//! fallback), query latency, demand decoding, whole-shard pruning and
//! budgeted eviction at 1k/5k/10k/100k (`--max-procs` trims the ladder)
//! and writes `BENCH_scale.json`.

use esh::prelude::*;
use esh_eval::experiments::Scale;
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  esh build-corpus [smoke|default|paper] <corpus.json>\n  \
         esh corpus gen --procs N [--seed S] [--out corpus.json] [--threads N]\n  \
         esh search <corpus.json> <query-substring> [top_n]\n  \
         esh index build <corpus.json> <index.eshx> [targets-per-shard]\n  \
         esh query --index <index.eshx> <corpus.json> <query-substring>\n  \
         \x20         [top_n] [--json] [--no-prefilter]\n  \
         esh query --remote <addr> <query-substring> [top_n] [--json]\n  \
         esh serve --index <index.eshx> <corpus.json> [--addr A] [--workers N]\n  \
         \x20         [--queue N] [--deadline-ms N] [--threads N]\n  \
         \x20         [--batch-max N] [--batch-window-ms N] [--shard-budget-mb N]\n  \
         esh bench-serve [--smoke]\n  \
         esh bench-prefilter [--smoke]\n  \
         esh bench-rankquality [--smoke]\n  \
         esh bench-scale [--smoke] [--threads N] [--no-mmap] [--max-procs N]\n  \
         esh stats <corpus.json>\n  \
         esh pair <corpus.json> <query-substring> <target-substring>"
    );
    ExitCode::from(2)
}

fn load(path: &str) -> Result<Corpus, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    Corpus::from_json(&text).map_err(|e| format!("parsing {path}: {e}"))
}

fn find_proc(corpus: &Corpus, needle: &str) -> Option<usize> {
    corpus
        .procs
        .iter()
        .position(|p| p.display().contains(needle))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("build-corpus") => build_corpus(&args[1..]),
        Some("corpus") => corpus_cmd(&args[1..]),
        Some("search") => search(&args[1..]),
        Some("index") => index(&args[1..]),
        Some("query") => query(&args[1..]),
        Some("serve") => serve(&args[1..]),
        Some("bench-serve") => bench_serve(&args[1..]),
        Some("bench-prefilter") => bench_prefilter(&args[1..]),
        Some("bench-rankquality") => bench_rankquality(&args[1..]),
        Some("bench-scale") => bench_scale(&args[1..]),
        Some("stats") => stats(&args[1..]),
        Some("pair") => pair(&args[1..]),
        _ => return usage(),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn build_corpus(args: &[String]) -> Result<(), String> {
    let (scale, path) = match args {
        [path] => (Scale::Default, path),
        [scale, path] => (
            Scale::parse(scale).ok_or_else(|| format!("unknown scale `{scale}`"))?,
            path,
        ),
        _ => return Err("build-corpus takes [scale] <corpus.json>".into()),
    };
    eprintln!("building {scale:?} corpus...");
    let corpus = Corpus::build(&scale.corpus_config());
    let json = corpus.to_json().map_err(|e| e.to_string())?;
    std::fs::write(path, json).map_err(|e| e.to_string())?;
    println!("wrote {} procedures to {path}", corpus.procs.len());
    Ok(())
}

fn search(args: &[String]) -> Result<(), String> {
    let (path, needle, top_n) = match args {
        [path, needle] => (path, needle, 10),
        [path, needle, n] => (
            path,
            needle,
            n.parse().map_err(|_| format!("bad top_n `{n}`"))?,
        ),
        _ => return Err("search takes <corpus.json> <query-substring> [top_n]".into()),
    };
    let corpus = load(path)?;
    let qi =
        find_proc(&corpus, needle).ok_or_else(|| format!("no procedure matching `{needle}`"))?;
    eprintln!("query: {}", corpus.procs[qi].display());
    let mut engine = SimilarityEngine::new(EngineConfig::default());
    for p in &corpus.procs {
        engine.add_target(p.display(), &p.proc_);
    }
    let scores = engine.query(&corpus.procs[qi].proc_);
    println!("{:>10}  procedure", "GES");
    for s in scores
        .ranked()
        .iter()
        .filter(|s| s.target.0 != qi)
        .take(top_n)
    {
        println!("{:>10.3}  {}", s.ges, s.name);
    }
    Ok(())
}

/// Builds an engine over every procedure of a corpus — the shared path of
/// `search` (in-memory) and `index build` (persisted), kept in one place
/// so `query --index` scores are identical to the in-memory ones.
fn engine_over_corpus(corpus: &Corpus) -> SimilarityEngine {
    let mut engine = SimilarityEngine::new(EngineConfig::default());
    for p in &corpus.procs {
        engine.add_target(p.display(), &p.proc_);
    }
    engine
}

/// Default shard granularity when the CLI does not specify one.
const DEFAULT_TARGETS_PER_SHARD: usize = 64;

fn parse_shard_size(arg: Option<&String>) -> Result<usize, String> {
    match arg {
        None => Ok(DEFAULT_TARGETS_PER_SHARD),
        Some(n) => n
            .parse::<usize>()
            .ok()
            .filter(|&n| n > 0)
            .ok_or_else(|| format!("bad targets-per-shard `{n}`")),
    }
}

fn index(args: &[String]) -> Result<(), String> {
    let (corpus_path, index_path, per_shard) = match args {
        [sub, corpus_path, index_path, rest @ ..] if sub == "build" && rest.len() <= 1 => {
            (corpus_path, index_path, parse_shard_size(rest.first())?)
        }
        _ => {
            return Err("index takes: build <corpus.json> <index.eshx> [targets-per-shard]".into())
        }
    };
    let corpus = load(corpus_path)?;
    eprintln!("indexing {} procedures...", corpus.procs.len());
    let engine = engine_over_corpus(&corpus);
    let summary =
        esh::index::write_sharded(&engine, index_path, per_shard).map_err(|e| e.to_string())?;
    println!(
        "wrote sharded index {index_path}: {} targets, {} classes, {} shards, \
         {}B core + {}B shards, format v{}",
        summary.targets,
        summary.classes,
        summary.shards,
        summary.core_bytes,
        summary.shard_bytes,
        esh::index::SHARDED_FORMAT_VERSION,
    );
    Ok(())
}

/// Streams the scale-tier corpus to disk as a `Corpus`-compatible JSON
/// document (`{"procs":[...]}`) without materializing it: each compiled
/// procedure is serialized and written as it is emitted.
fn corpus_cmd(args: &[String]) -> Result<(), String> {
    use std::io::Write as _;
    let mut rest = args.iter();
    if rest.next().map(String::as_str) != Some("gen") {
        return Err(
            "corpus takes: gen --procs N [--seed S] [--out corpus.json] [--threads N]".into(),
        );
    }
    let mut procs = None;
    let mut seed = 0xe5e5u64;
    let mut out = None;
    let mut threads = 0usize;
    while let Some(arg) = rest.next() {
        let mut value = |name: &str| {
            rest.next()
                .map(String::as_str)
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match arg.as_str() {
            "--procs" => {
                procs = Some(value("--procs")?.parse::<usize>().map_err(|e| format!("--procs: {e}"))?)
            }
            "--seed" => seed = value("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--out" => out = Some(value("--out")?.to_string()),
            "--threads" => {
                threads = value("--threads")?.parse().map_err(|e| format!("--threads: {e}"))?
            }
            extra => return Err(format!("unexpected argument `{extra}`")),
        }
    }
    let procs = procs.ok_or("corpus gen needs --procs N")?;
    // `--threads 0` (the default) means one compile thread per matrix
    // configuration; the emitted stream is byte-identical either way.
    let threads = if threads == 0 { esh::corpus::scale::scale_matrix().len() } else { threads };
    let config = esh::corpus::scale::ScaleConfig::new(procs, seed);
    let sink: Box<dyn std::io::Write> = match &out {
        Some(path) => Box::new(std::fs::File::create(path).map_err(|e| format!("{path}: {e}"))?),
        None => Box::new(std::io::stdout().lock()),
    };
    let mut w = std::io::BufWriter::new(sink);
    let mut failure = None;
    w.write_all(b"{\"procs\":[").map_err(|e| e.to_string())?;
    let mut first = true;
    let emitted = esh::corpus::scale::stream_scale_corpus_with_threads(&config, threads, |p| {
        if failure.is_some() {
            return;
        }
        let record = match serde_json::to_string(&p) {
            Ok(r) => r,
            Err(e) => {
                failure = Some(format!("serializing {}: {e}", p.display()));
                return;
            }
        };
        let sep = if first { "" } else { "," };
        first = false;
        if let Err(e) = write!(w, "{sep}{record}") {
            failure = Some(e.to_string());
        }
    });
    if let Some(e) = failure {
        return Err(e);
    }
    w.write_all(b"]}").map_err(|e| e.to_string())?;
    w.flush().map_err(|e| e.to_string())?;
    eprintln!(
        "generated {emitted} procedures (seed {seed:#x}, {} sources x {} toolchain configs){}",
        config.source_count(),
        esh::corpus::scale::scale_matrix().len(),
        out.map(|p| format!(" -> {p}")).unwrap_or_default(),
    );
    Ok(())
}

fn query(args: &[String]) -> Result<(), String> {
    // `--json` / `--no-prefilter` may appear anywhere; strip them before
    // positional matching.
    let json = args.iter().any(|a| a == "--json");
    let no_prefilter = args.iter().any(|a| a == "--no-prefilter");
    let args: Vec<&String> = args
        .iter()
        .filter(|a| *a != "--json" && *a != "--no-prefilter")
        .collect();
    if no_prefilter && args.first().map(|a| a.as_str()) == Some("--remote") {
        return Err("--no-prefilter applies to --index queries (the daemon owns its engine)".into());
    }
    match args.as_slice() {
        [flag, index, corpus, needle] if *flag == "--index" => {
            query_index(index, corpus, needle, 10, json, no_prefilter)
        }
        [flag, index, corpus, needle, n] if *flag == "--index" => query_index(
            index,
            corpus,
            needle,
            n.parse().map_err(|_| format!("bad top_n `{n}`"))?,
            json,
            no_prefilter,
        ),
        [flag, addr, needle] if *flag == "--remote" => query_remote(addr, needle, 10, json),
        [flag, addr, needle, n] if *flag == "--remote" => query_remote(
            addr,
            needle,
            n.parse().map_err(|_| format!("bad top_n `{n}`"))?,
            json,
        ),
        _ => Err("query takes --index <index.eshx> <corpus.json> <query-substring> [top_n] \
                  [--json] [--no-prefilter], or --remote <addr> <query-substring> [top_n] \
                  [--json]"
            .into()),
    }
}

/// Prints a ranked match list in the human-readable table format.
fn print_matches(matches: &[esh::serve::RankedMatch]) {
    println!("{:>10}  procedure", "GES");
    for m in matches {
        println!("{:>10.3}  {}", m.ges, m.name);
    }
}

fn query_index(
    index_path: &str,
    corpus_path: &str,
    needle: &str,
    top_n: usize,
    json: bool,
    no_prefilter: bool,
) -> Result<(), String> {
    let corpus = load(corpus_path)?;
    let qi =
        find_proc(&corpus, needle).ok_or_else(|| format!("no procedure matching `{needle}`"))?;
    eprintln!("query: {}", corpus.procs[qi].display());
    let mut engine = esh::index::open_sharded(index_path).map_err(|e| e.to_string())?;
    // The escape hatch: answer this one query with the exhaustive engine.
    if no_prefilter {
        engine.set_prefilter_enabled(false);
    }
    let started = std::time::Instant::now();
    let scores = engine.query(&corpus.procs[qi].proc_);
    let matches = esh::serve::ranked_matches(&scores, Some(esh::core::TargetId(qi)), top_n);
    if json {
        // The wire schema, verbatim: offline and remote output are
        // interchangeable for machine consumers.
        let response = esh::serve::QueryResponse {
            outcome: esh::serve::Outcome::Ok,
            error: None,
            query: Some(corpus.procs[qi].display()),
            matches,
            queue_ms: 0,
            latency_ms: started.elapsed().as_millis() as u64,
        };
        print!("{}", esh::serve::encode_line(&response));
    } else {
        print_matches(&matches);
        let stats = engine.cache_stats();
        println!(
            "vcp cache: {} hits, {} misses, {:.1}% hit rate, {} entries",
            stats.hits,
            stats.misses,
            stats.hit_rate() * 100.0,
            stats.entries,
        );
        let sp = engine.solver_stats();
        println!(
            "sat solver: {} queries, {:.1} conflicts/query, {:.1} ms sat time, \
             {} blast hits / {} misses, {} learnts retained ({} dropped, {} resets)",
            sp.sat_queries,
            sp.conflicts_per_query(),
            sp.sat_time_ns as f64 / 1e6,
            sp.blast_cache_hits,
            sp.blast_cache_misses,
            sp.retained_learnts,
            sp.learnts_dropped,
            sp.solver_resets,
        );
    }
    Ok(())
}

fn query_remote(addr: &str, needle: &str, top_n: usize, json: bool) -> Result<(), String> {
    let request = esh::serve::QueryRequest {
        query: needle.to_string(),
        top_n: Some(top_n as u64),
        deadline_ms: None,
    };
    let response =
        esh::serve::remote_query(addr, &request, std::time::Duration::from_secs(60))
            .map_err(|e| format!("querying {addr}: {e}"))?;
    if json {
        print!("{}", esh::serve::encode_line(&response));
        return Ok(());
    }
    match response.outcome {
        esh::serve::Outcome::Ok => {
            if let Some(name) = &response.query {
                eprintln!("query: {name}");
            }
            print_matches(&response.matches);
            println!(
                "server: {}ms latency ({}ms queued)",
                response.latency_ms, response.queue_ms
            );
            Ok(())
        }
        outcome => Err(format!(
            "server answered {outcome:?}: {}",
            response.error.unwrap_or_default()
        )),
    }
}

fn serve(args: &[String]) -> Result<(), String> {
    let mut index_path = None;
    let mut corpus_path = None;
    let mut config = esh::serve::ServeConfig::default();
    let mut threads = 1usize;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .map(String::as_str)
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match arg.as_str() {
            "--index" => index_path = Some(value("--index")?.to_string()),
            "--addr" => config.addr = value("--addr")?.to_string(),
            "--workers" => {
                config.workers = value("--workers")?.parse().map_err(|e| format!("--workers: {e}"))?
            }
            "--queue" => {
                config.queue_capacity =
                    value("--queue")?.parse().map_err(|e| format!("--queue: {e}"))?
            }
            "--batch-max" => {
                config.batch_max = value("--batch-max")?
                    .parse()
                    .map_err(|e| format!("--batch-max: {e}"))?
            }
            "--batch-window-ms" => {
                config.batch_window_ms = value("--batch-window-ms")?
                    .parse()
                    .map_err(|e| format!("--batch-window-ms: {e}"))?
            }
            "--deadline-ms" => {
                config.default_deadline_ms = value("--deadline-ms")?
                    .parse()
                    .map_err(|e| format!("--deadline-ms: {e}"))?
            }
            "--threads" => {
                threads = value("--threads")?.parse().map_err(|e| format!("--threads: {e}"))?
            }
            "--shard-budget-mb" => {
                config.shard_budget_mb = Some(
                    value("--shard-budget-mb")?
                        .parse()
                        .map_err(|e| format!("--shard-budget-mb: {e}"))?,
                )
            }
            path if corpus_path.is_none() => corpus_path = Some(path.to_string()),
            extra => return Err(format!("unexpected argument `{extra}`")),
        }
    }
    let index_path = index_path.ok_or("serve needs --index <index.eshx>")?;
    let corpus_path = corpus_path.ok_or("serve needs <corpus.json>")?;

    let corpus = load(&corpus_path)?;
    let mut engine = esh::index::open_sharded(&index_path).map_err(|e| e.to_string())?;
    if engine.target_count() != corpus.procs.len() {
        return Err(format!(
            "index {} has {} targets but {} has {} procedures — rebuild with `esh index build`",
            index_path,
            engine.target_count(),
            corpus_path,
            corpus.procs.len(),
        ));
    }
    // Under a worker pool, per-query parallelism multiplies: keep each
    // query narrow by default and let concurrency come from requests.
    engine.set_threads(threads);

    let server = esh::serve::Server::start(engine, corpus, config.clone())
        .map_err(|e| format!("binding {}: {e}", config.addr))?;
    let addr = server.local_addr();
    eprintln!(
        "esh serve: listening on {addr} ({} workers, queue {}, default deadline {}ms, \
         batch {}x{}ms)",
        config.workers,
        config.queue_capacity,
        config.default_deadline_ms,
        config.batch_max,
        config.batch_window_ms
    );
    eprintln!("esh serve: GET /healthz and /metrics on the same port");
    eprintln!("esh serve: send {{\"query\":\"@shutdown\"}} to drain and exit");
    let stats = server.join();
    eprintln!(
        "esh serve: drained — {} ok, {} overloaded, {} deadline-exceeded, {} not-found, \
         {} bad, {} http; queue high-water {}, p50 {}ms, p99 {}ms",
        stats.ok,
        stats.overloaded,
        stats.deadline_exceeded,
        stats.not_found,
        stats.bad_request,
        stats.http,
        stats.queue_depth_hwm,
        stats.p50_ms,
        stats.p99_ms,
    );
    Ok(())
}

fn bench_serve(args: &[String]) -> Result<(), String> {
    let smoke = match args {
        [] => false,
        [flag] if flag == "--smoke" => true,
        _ => return Err("bench-serve takes [--smoke]".into()),
    };
    esh::serve::bench::run(smoke)
}

fn bench_prefilter(args: &[String]) -> Result<(), String> {
    let smoke = match args {
        [] => false,
        [flag] if flag == "--smoke" => true,
        _ => return Err("bench-prefilter takes [--smoke]".into()),
    };
    esh::bench_prefilter::run(smoke)
}

fn bench_rankquality(args: &[String]) -> Result<(), String> {
    let smoke = match args {
        [] => false,
        [flag] if flag == "--smoke" => true,
        _ => return Err("bench-rankquality takes [--smoke]".into()),
    };
    esh::bench_rankquality::run(smoke)
}

fn bench_scale(args: &[String]) -> Result<(), String> {
    let mut opts = esh::bench_scale::BenchScaleOptions::default();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--smoke" => opts.smoke = true,
            "--no-mmap" => opts.mmap = false,
            "--threads" => {
                opts.threads = it
                    .next()
                    .ok_or("--threads needs a value")?
                    .parse()
                    .map_err(|e| format!("--threads: {e}"))?
            }
            "--max-procs" => {
                opts.max_procs = it
                    .next()
                    .ok_or("--max-procs needs a value")?
                    .parse()
                    .map_err(|e| format!("--max-procs: {e}"))?
            }
            extra => {
                return Err(format!(
                    "bench-scale takes [--smoke] [--threads N] [--no-mmap] [--max-procs N], \
                     not `{extra}`"
                ))
            }
        }
    }
    esh::bench_scale::run(&opts)
}

fn stats(args: &[String]) -> Result<(), String> {
    let [path] = args else {
        return Err("stats takes <corpus.json>".into());
    };
    let corpus = load(path)?;
    println!("procedures: {}", corpus.procs.len());
    let cves: std::collections::BTreeSet<_> =
        corpus.procs.iter().filter_map(|p| p.cve.clone()).collect();
    println!("CVE functions: {}", cves.len());
    let toolchains: std::collections::BTreeSet<_> =
        corpus.procs.iter().map(|p| p.toolchain.clone()).collect();
    println!("toolchains: {}", toolchains.len());
    for t in toolchains {
        println!("  {t}");
    }
    let insts: usize = corpus.procs.iter().map(|p| p.proc_.inst_count()).sum();
    println!("total instructions: {insts}");
    Ok(())
}

fn pair(args: &[String]) -> Result<(), String> {
    let [path, qn, tn] = args else {
        return Err("pair takes <corpus.json> <query-substring> <target-substring>".into());
    };
    let corpus = load(path)?;
    let qi = find_proc(&corpus, qn).ok_or_else(|| format!("no procedure matching `{qn}`"))?;
    let ti = find_proc(&corpus, tn).ok_or_else(|| format!("no procedure matching `{tn}`"))?;
    let mut engine = SimilarityEngine::new(EngineConfig::default());
    let target = engine.add_target(corpus.procs[ti].display(), &corpus.procs[ti].proc_);
    let scores = engine.query(&corpus.procs[qi].proc_);
    let s = scores
        .scores
        .iter()
        .find(|s| s.target == target)
        .expect("scored");
    println!("query : {}", corpus.procs[qi].display());
    println!("target: {}", corpus.procs[ti].display());
    println!("GES   : {:.3}", s.ges);
    println!("S-LOG : {:.3}", s.s_log);
    println!("S-VCP : {:.3}", s.s_vcp);
    Ok(())
}
