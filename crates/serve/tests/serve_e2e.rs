//! End-to-end daemon tests over real loopback sockets: correctness vs
//! the offline engine, typed rejections, deadlines, the HTTP shim and
//! graceful drain.

use std::io::Write;
use std::net::TcpStream;
use std::time::Duration;

use esh_cc::{Compiler, Vendor, VendorVersion};
use esh_core::{EngineConfig, SimilarityEngine, TargetId};
use esh_corpus::{CompiledProc, Corpus, PatchTag};
use esh_minic::demo;
use esh_serve::protocol::{
    http_get, ranked_matches, remote_query, Outcome, PipelinedClient, QueryRequest,
};
use esh_serve::server::{ServeConfig, Server};

const TIMEOUT: Duration = Duration::from_secs(30);

/// A four-procedure corpus: two demo functions, each compiled by two
/// vendors, with display names distinct enough to query by substring.
fn tiny_corpus() -> Corpus {
    let clang = Compiler::new(Vendor::Clang, VendorVersion::new(3, 5));
    let icc = Compiler::new(Vendor::Icc, VendorVersion::new(15, 0));
    let mut procs = Vec::new();
    for f in [demo::saturating_sum(), demo::wget_like()] {
        for (toolchain, cc) in [("clang 3.5", &clang), ("icc 15.0", &icc)] {
            procs.push(CompiledProc {
                package: "e2e".into(),
                func: f.name.clone(),
                cve: None,
                toolchain: toolchain.into(),
                patch: PatchTag::Original,
                proc_: cc.compile_function(&f),
            });
        }
    }
    Corpus { procs }
}

fn engine_over(corpus: &Corpus) -> SimilarityEngine {
    let mut engine = SimilarityEngine::new(EngineConfig {
        threads: 1,
        ..EngineConfig::default()
    });
    for p in &corpus.procs {
        engine.add_target(p.display(), &p.proc_);
    }
    engine
}

fn start(workers: usize, queue_capacity: usize, read_timeout_ms: u64) -> (Server, String) {
    let corpus = tiny_corpus();
    let server = Server::start(
        engine_over(&corpus),
        corpus,
        ServeConfig {
            addr: "127.0.0.1:0".into(),
            workers,
            queue_capacity,
            read_timeout_ms,
            ..ServeConfig::default()
        },
    )
    .expect("bind loopback");
    let addr = server.local_addr().to_string();
    (server, addr)
}

#[test]
fn served_rankings_are_byte_identical_to_offline() {
    let corpus = tiny_corpus();
    let offline = engine_over(&corpus);
    let needle = &corpus.procs[0].display();
    let expected = ranked_matches(&offline.query(&corpus.procs[0].proc_), Some(TargetId(0)), 10);

    let (server, addr) = start(2, 8, 2_000);
    let resp = remote_query(&addr, &QueryRequest::new(needle), TIMEOUT).unwrap();
    assert_eq!(resp.outcome, Outcome::Ok);
    assert_eq!(resp.query.as_deref(), Some(needle.as_str()));
    assert_eq!(resp.matches.len(), expected.len());
    for (got, want) in resp.matches.iter().zip(&expected) {
        assert_eq!(got.rank, want.rank);
        assert_eq!(got.name, want.name);
        assert_eq!(got.ges.to_bits(), want.ges.to_bits(), "{}", want.name);
        assert_eq!(got.s_log.to_bits(), want.s_log.to_bits(), "{}", want.name);
        assert_eq!(got.s_vcp.to_bits(), want.s_vcp.to_bits(), "{}", want.name);
    }
    // The query's own corpus entry is excluded, like the offline CLI.
    assert!(resp.matches.iter().all(|m| &m.name != needle));
    server.shutdown();
}

#[test]
fn top_n_caps_the_match_list() {
    let (server, addr) = start(1, 8, 2_000);
    let resp = remote_query(
        &addr,
        &QueryRequest {
            query: "saturating_sum [clang".into(),
            top_n: Some(1),
            deadline_ms: None,
        },
        TIMEOUT,
    )
    .unwrap();
    assert_eq!(resp.outcome, Outcome::Ok);
    assert_eq!(resp.matches.len(), 1);
    assert_eq!(resp.matches[0].rank, 1);
    server.shutdown();
}

#[test]
fn unknown_query_is_not_found() {
    let (server, addr) = start(1, 8, 2_000);
    let resp = remote_query(&addr, &QueryRequest::new("no-such-proc"), TIMEOUT).unwrap();
    assert_eq!(resp.outcome, Outcome::NotFound);
    assert!(resp.error.unwrap().contains("no-such-proc"));
    assert!(resp.matches.is_empty());
    server.shutdown();
}

#[test]
fn malformed_line_is_bad_request() {
    let (server, addr) = start(1, 8, 2_000);
    let stream = TcpStream::connect(&addr).unwrap();
    stream.set_read_timeout(Some(TIMEOUT)).unwrap();
    let mut w = stream.try_clone().unwrap();
    w.write_all(b"this is not json\n").unwrap();
    let mut line = String::new();
    std::io::BufRead::read_line(&mut std::io::BufReader::new(stream), &mut line).unwrap();
    let resp: esh_serve::protocol::QueryResponse =
        esh_serve::protocol::decode_line(&line).unwrap();
    assert_eq!(resp.outcome, Outcome::BadRequest);
    server.shutdown();
}

/// Sends `payload` on a fresh connection from a writer thread, then
/// half-closes it (the daemon may close first, so write errors are
/// ignored). Returns the first response line and everything after it.
fn hostile_exchange(addr: &str, payload: Vec<u8>) -> (String, String) {
    let stream = TcpStream::connect(addr).unwrap();
    stream.set_read_timeout(Some(TIMEOUT)).unwrap();
    let mut w = stream.try_clone().unwrap();
    let writer = std::thread::spawn(move || {
        let _ = w.write_all(&payload);
        let _ = w.shutdown(std::net::Shutdown::Write);
    });
    let mut reader = std::io::BufReader::new(stream);
    let mut line = String::new();
    std::io::BufRead::read_line(&mut reader, &mut line).unwrap();
    let mut rest = String::new();
    let _ = std::io::Read::read_to_string(&mut reader, &mut rest);
    writer.join().unwrap();
    (line, rest)
}

/// A query on a new connection, checked bit for bit against offline.
fn assert_still_serves(addr: &str) {
    let corpus = tiny_corpus();
    let needle = corpus.procs[0].display();
    let expected = ranked_matches(
        &engine_over(&corpus).query(&corpus.procs[0].proc_),
        Some(TargetId(0)),
        10,
    );
    let resp = remote_query(addr, &QueryRequest::new(&needle), TIMEOUT).unwrap();
    assert_eq!(resp.outcome, Outcome::Ok);
    assert_eq!(resp.matches.len(), expected.len());
    for (got, want) in resp.matches.iter().zip(&expected) {
        assert_eq!(got.name, want.name);
        assert_eq!(got.ges.to_bits(), want.ges.to_bits(), "{}", want.name);
        assert_eq!(got.s_log.to_bits(), want.s_log.to_bits(), "{}", want.name);
        assert_eq!(got.s_vcp.to_bits(), want.s_vcp.to_bits(), "{}", want.name);
    }
}

#[test]
fn deeply_nested_json_is_bad_request_and_the_daemon_keeps_serving() {
    // Under the line cap, but deep enough to overflow a reader's stack
    // if the parser recursed without a depth limit.
    let (server, addr) = start(1, 8, 2_000);
    let mut payload = vec![b'['; 60_000];
    payload.push(b'\n');
    let (line, rest) = hostile_exchange(&addr, payload);
    let resp: esh_serve::protocol::QueryResponse =
        esh_serve::protocol::decode_line(&line).unwrap();
    assert_eq!(resp.outcome, Outcome::BadRequest);
    assert!(resp.error.unwrap().contains("nesting"));
    assert!(rest.is_empty());
    assert_still_serves(&addr);
    let stats = server.shutdown();
    assert_eq!((stats.bad_request, stats.ok), (1, 1));
}

#[test]
fn unterminated_line_is_bad_request_and_closes_only_that_connection() {
    let (server, addr) = start(1, 8, 2_000);
    let (line, rest) = hostile_exchange(&addr, vec![b'x'; 1 << 20]);
    let resp: esh_serve::protocol::QueryResponse =
        esh_serve::protocol::decode_line(&line).unwrap();
    assert_eq!(resp.outcome, Outcome::BadRequest);
    assert!(resp.error.unwrap().contains("line longer than"));
    assert!(rest.is_empty(), "one response, then the connection closes");
    assert_still_serves(&addr);
    let stats = server.shutdown();
    assert_eq!((stats.bad_request, stats.ok), (1, 1));
}

#[test]
fn zero_deadline_expires_in_the_queue() {
    let (server, addr) = start(1, 8, 2_000);
    let resp = remote_query(
        &addr,
        &QueryRequest {
            query: "ftp_syst".into(),
            top_n: None,
            deadline_ms: Some(0),
        },
        TIMEOUT,
    )
    .unwrap();
    assert_eq!(resp.outcome, Outcome::DeadlineExceeded);
    let stats = server.shutdown();
    assert_eq!(stats.deadline_exceeded, 1);
    assert_eq!(stats.ok, 0);
}

#[test]
fn healthz_and_metrics_answer_over_http() {
    let (server, addr) = start(1, 8, 2_000);
    let (status, body) = http_get(&addr, "/healthz", TIMEOUT).unwrap();
    assert_eq!(status, 200);
    assert_eq!(body.trim(), "ok");

    // One query so the counters are non-trivial.
    remote_query(&addr, &QueryRequest::new("ftp_syst"), TIMEOUT).unwrap();
    let (status, body) = http_get(&addr, "/metrics", TIMEOUT).unwrap();
    assert_eq!(status, 200);
    assert!(body.contains("esh_requests_total{outcome=\"ok\"} 1"));
    assert!(body.contains("esh_vcp_cache_misses_total"));
    assert!(body.contains("esh_sat_queries_total"));

    let (status, _) = http_get(&addr, "/nope", TIMEOUT).unwrap();
    assert_eq!(status, 404);
    server.shutdown();
}

#[test]
fn full_queue_yields_typed_overload_rejections() {
    // One worker, one queue slot. Two idle connections (they send
    // nothing) pin the worker and fill the slot for the duration of the
    // read timeout, so a real request must be rejected at admission.
    let (server, addr) = start(1, 1, 3_000);
    let _stall_worker = TcpStream::connect(&addr).unwrap();
    // Stagger the stalls: the worker must pop the first before the second
    // arrives, so the second occupies the queue slot rather than racing
    // the pop.
    std::thread::sleep(Duration::from_millis(200));
    let _stall_queue = TcpStream::connect(&addr).unwrap();
    std::thread::sleep(Duration::from_millis(200));

    let resp = remote_query(&addr, &QueryRequest::new("ftp_syst"), TIMEOUT).unwrap();
    assert_eq!(resp.outcome, Outcome::Overloaded);
    assert!(resp.error.unwrap().contains("queue full"));

    // An HTTP probe during overload is load-shed in its own dialect.
    let (status, _) = http_get(&addr, "/healthz", TIMEOUT).unwrap();
    assert_eq!(status, 503);

    let stats = server.shutdown();
    assert!(stats.overloaded >= 2);
    assert!(stats.queue_depth_hwm <= 1, "queue bound was violated");
}

#[test]
fn shutdown_drains_admitted_requests() {
    // One worker pinned by an idle connection; two real requests queue
    // up behind it. Shutdown must still answer both (drain), not drop
    // them.
    let (server, addr) = start(1, 8, 1_000);
    let _stall = TcpStream::connect(&addr).unwrap();

    let send = |q: &str| {
        let stream = TcpStream::connect(&addr).unwrap();
        stream.set_read_timeout(Some(TIMEOUT)).unwrap();
        let mut w = stream.try_clone().unwrap();
        w.write_all(
            esh_serve::protocol::encode_line(&QueryRequest::new(q)).as_bytes(),
        )
        .unwrap();
        stream
    };
    let pending = [send("ftp_syst"), send("saturating_sum [icc")];
    std::thread::sleep(Duration::from_millis(200)); // let both be admitted

    server.request_shutdown();
    for stream in pending {
        let mut line = String::new();
        std::io::BufRead::read_line(&mut std::io::BufReader::new(stream), &mut line).unwrap();
        let resp: esh_serve::protocol::QueryResponse =
            esh_serve::protocol::decode_line(&line).unwrap();
        assert_eq!(resp.outcome, Outcome::Ok, "admitted request was dropped");
    }
    let stats = server.join();
    assert_eq!(stats.ok, 2);
}

/// Every corpus procedure's offline top-10, the reference served
/// responses must match bit for bit.
fn offline_top10(corpus: &Corpus) -> Vec<Vec<esh_serve::protocol::RankedMatch>> {
    let offline = engine_over(corpus);
    (0..corpus.procs.len())
        .map(|qi| {
            ranked_matches(
                &offline.query(&corpus.procs[qi].proc_),
                Some(TargetId(qi)),
                10,
            )
        })
        .collect()
}

/// Receives one response per name in `order` and checks each arrives in
/// request order, bit-identical to the offline ranking.
fn expect_in_order(
    client: &mut PipelinedClient,
    names: &[String],
    expected: &[Vec<esh_serve::protocol::RankedMatch>],
    order: impl Iterator<Item = usize>,
) {
    for (k, qi) in order.enumerate() {
        let resp = client.recv().unwrap();
        assert_eq!(resp.outcome, Outcome::Ok, "response {k}");
        assert_eq!(resp.query.as_deref(), Some(names[qi].as_str()), "order {k}");
        assert_eq!(resp.matches.len(), expected[qi].len());
        for (got, want) in resp.matches.iter().zip(&expected[qi]) {
            assert_eq!(got.name, want.name, "response {k}");
            assert_eq!(got.ges.to_bits(), want.ges.to_bits(), "response {k}");
            assert_eq!(got.s_log.to_bits(), want.s_log.to_bits(), "response {k}");
            assert_eq!(got.s_vcp.to_bits(), want.s_vcp.to_bits(), "response {k}");
        }
    }
}

#[test]
fn pipelined_requests_answer_in_order_and_match_offline() {
    let corpus = tiny_corpus();
    let expected = offline_top10(&corpus);
    let (server, addr) = start(1, 8, 2_000);
    let mut client = PipelinedClient::connect(&addr, TIMEOUT).unwrap();
    // Write the whole pipeline before reading anything: every corpus
    // procedure twice, plus an unknown name in the middle. However the
    // executors split these into batches, they must come back in request
    // order. (That queued duplicates share one engine item is pinned by
    // the server's `queued_duplicate_names_share_one_engine_item`.)
    let names: Vec<String> = corpus.procs.iter().map(|p| p.display()).collect();
    for name in names.iter().chain(names.iter()) {
        client.send(&QueryRequest::new(name)).unwrap();
    }
    client.send(&QueryRequest::new("no-such-proc")).unwrap();
    expect_in_order(&mut client, &names, &expected, (0..names.len()).chain(0..names.len()));
    let resp = client.recv().unwrap();
    assert_eq!(resp.outcome, Outcome::NotFound);
    drop(client);
    let stats = server.shutdown();
    assert_eq!(stats.ok, 8);
    assert_eq!(stats.not_found, 1);
    assert!(stats.batches >= 1, "the batching tier never ran");
}

#[test]
fn concurrent_pipelines_complete_out_of_order_and_answer_in_order() {
    // Four pipelined connections, each naming every corpus procedure
    // twice, against a daemon with one executor per core: batches from
    // different connections run concurrently, so a connection's later
    // requests can finish before its earlier ones. The reorder buffer
    // must still answer each socket in request order, bit-identical to
    // the offline ranking.
    let corpus = tiny_corpus();
    let expected = offline_top10(&corpus);
    let (server, addr) = start(4, 8, 2_000);
    let names: Vec<String> = corpus.procs.iter().map(|p| p.display()).collect();
    let order = || (0..names.len()).chain(0..names.len());
    std::thread::scope(|scope| {
        for _ in 0..4 {
            scope.spawn(|| {
                let mut client = PipelinedClient::connect(&addr, TIMEOUT).unwrap();
                for qi in order() {
                    client.send(&QueryRequest::new(&names[qi])).unwrap();
                }
                expect_in_order(&mut client, &names, &expected, order());
            });
        }
    });
    let stats = server.shutdown();
    assert_eq!(stats.ok, 4 * 2 * names.len() as u64);
    assert_eq!(stats.batched_queries, stats.ok);
}

#[test]
fn deadline_expiry_interleaves_with_live_pipelined_requests() {
    // A zero budget has expired by the time any executor takes the
    // request, whichever batch it lands in: the zero-budget member must
    // expire at batch assembly while the requests around it complete,
    // and order on the wire is preserved.
    let (server, addr) = start(1, 8, 2_000);
    let mut client = PipelinedClient::connect(&addr, TIMEOUT).unwrap();
    client.send(&QueryRequest::new("ftp_syst")).unwrap();
    client
        .send(&QueryRequest {
            query: "saturating_sum [icc".into(),
            top_n: None,
            deadline_ms: Some(0),
        })
        .unwrap();
    client.send(&QueryRequest::new("saturating_sum [clang")).unwrap();
    let first = client.recv().unwrap();
    let second = client.recv().unwrap();
    let third = client.recv().unwrap();
    assert_eq!(first.outcome, Outcome::Ok);
    assert!(first.query.unwrap().contains("ftp_syst"), "order violated");
    assert_eq!(second.outcome, Outcome::DeadlineExceeded);
    assert!(second.error.unwrap().contains("expired in the queue"));
    assert_eq!(third.outcome, Outcome::Ok);
    assert!(third.query.unwrap().contains("clang"), "order violated");
    drop(client);
    let stats = server.shutdown();
    assert_eq!(stats.ok, 2);
    assert_eq!(stats.deadline_exceeded, 1);
}

#[test]
fn tight_deadline_cancels_cooperatively_without_wedging_the_batch() {
    // A 3ms budget expires either at batch assembly or mid-scoring
    // (cooperative cancellation between VCP tiles) — both are legal, but
    // the server must answer it *and* the unconstrained request behind
    // it (a batch-mate or not), and a follow-up request on the same
    // socket must still work.
    let (server, addr) = start(1, 8, 2_000);
    let mut client = PipelinedClient::connect(&addr, TIMEOUT).unwrap();
    client
        .send(&QueryRequest {
            query: "ftp_syst [icc".into(),
            top_n: None,
            deadline_ms: Some(3),
        })
        .unwrap();
    client.send(&QueryRequest::new("saturating_sum [clang")).unwrap();
    let tight = client.recv().unwrap();
    assert!(
        matches!(tight.outcome, Outcome::Ok | Outcome::DeadlineExceeded),
        "tight deadline produced {:?}",
        tight.outcome
    );
    let mate = client.recv().unwrap();
    assert_eq!(mate.outcome, Outcome::Ok, "batch-mate must survive");
    let retry = client.query(&QueryRequest::new("ftp_syst [icc")).unwrap();
    assert_eq!(retry.outcome, Outcome::Ok, "connection stays usable");
    drop(client);
    server.shutdown();
}

#[test]
fn shutdown_drains_a_batch_in_flight() {
    // Requests pipelined on connections a reader already owns, then an
    // immediate drain while they are queued or being scored: every
    // admitted request must be answered before join returns, and the
    // responses stay in order.
    let (server, addr) = start(2, 8, 2_000);
    let mut a = PipelinedClient::connect(&addr, TIMEOUT).unwrap();
    let mut b = PipelinedClient::connect(&addr, TIMEOUT).unwrap();
    // One unscored round trip each proves a reader owns the connection.
    for c in [&mut a, &mut b] {
        let resp = c.query(&QueryRequest::new("no-such-proc")).unwrap();
        assert_eq!(resp.outcome, Outcome::NotFound);
    }
    a.send(&QueryRequest::new("ftp_syst")).unwrap();
    a.send(&QueryRequest::new("saturating_sum [icc")).unwrap();
    b.send(&QueryRequest::new("saturating_sum [clang")).unwrap();
    server.request_shutdown();
    for resp in [a.recv().unwrap(), a.recv().unwrap(), b.recv().unwrap()] {
        assert_eq!(resp.outcome, Outcome::Ok, "in-flight batch was dropped");
    }
    drop(a);
    drop(b);
    let stats = server.join();
    assert_eq!(stats.ok, 3);
    assert_eq!(stats.not_found, 2);
}

#[test]
fn wire_shutdown_acknowledges_and_drains() {
    let (server, addr) = start(2, 8, 2_000);
    remote_query(&addr, &QueryRequest::new("ftp_syst"), TIMEOUT).unwrap();
    let ack = remote_query(&addr, &QueryRequest::new("@shutdown"), TIMEOUT).unwrap();
    assert_eq!(ack.outcome, Outcome::ShuttingDown);
    let stats = server.join(); // must return: every thread exits
    assert_eq!(stats.ok, 1);
    assert_eq!(stats.shutting_down, 1);
}

#[test]
fn serving_from_a_sharded_index_is_lazy_and_identical() {
    // The scale tier's contract, observed end to end: a daemon whose
    // engine came from a sharded v5 index answers byte-identically to a
    // fully resident engine, while loading only the shards a query's
    // candidate classes live in — one shard per target here, so lazy
    // loading is visible as `esh_shards_loaded < esh_shards_total` in
    // /metrics after a query.
    let clang = Compiler::new(Vendor::Clang, VendorVersion::new(3, 5));
    let icc = Compiler::new(Vendor::Icc, VendorVersion::new(15, 0));
    let gcc = Compiler::new(Vendor::Gcc, VendorVersion::new(4, 9));
    let mut procs = Vec::new();
    for f in [
        demo::saturating_sum(),
        demo::wget_like(),
        demo::heartbleed_like(),
        demo::venom_like(),
        demo::ws_snmp_like(),
        demo::shellshock_like(),
    ] {
        for (toolchain, cc) in [("clang 3.5", &clang), ("icc 15.0", &icc), ("gcc 4.9", &gcc)] {
            procs.push(CompiledProc {
                package: "lazy-e2e".into(),
                func: f.name.clone(),
                cve: None,
                toolchain: (*toolchain).into(),
                patch: PatchTag::Original,
                proc_: cc.compile_function(&f),
            });
        }
    }
    let corpus = Corpus { procs };
    let resident = engine_over(&corpus);

    let dir = std::env::temp_dir().join(format!("esh-serve-lazy-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let summary = esh_index::write_sharded(&resident, &dir, 1).expect("write sharded");
    assert_eq!(summary.shards, corpus.procs.len(), "one target per shard");
    let lazy = esh_index::open_sharded(&dir).expect("open sharded");
    let mut lazy = lazy;
    lazy.set_threads(1);

    let needle = corpus.procs[0].display();
    let expected = ranked_matches(&resident.query(&corpus.procs[0].proc_), Some(TargetId(0)), 10);

    let server = Server::start(
        lazy,
        corpus,
        ServeConfig {
            addr: "127.0.0.1:0".into(),
            workers: 1,
            queue_capacity: 8,
            read_timeout_ms: 2_000,
            ..ServeConfig::default()
        },
    )
    .expect("bind loopback");
    let addr = server.local_addr().to_string();

    let resp = remote_query(&addr, &QueryRequest::new(&needle), TIMEOUT).unwrap();
    assert_eq!(resp.outcome, Outcome::Ok);
    assert_eq!(resp.matches.len(), expected.len());
    for (got, want) in resp.matches.iter().zip(&expected) {
        assert_eq!(got.name, want.name);
        assert_eq!(got.ges.to_bits(), want.ges.to_bits(), "{}", want.name);
        assert_eq!(got.s_log.to_bits(), want.s_log.to_bits(), "{}", want.name);
        assert_eq!(got.s_vcp.to_bits(), want.s_vcp.to_bits(), "{}", want.name);
    }

    let (status, body) = http_get(&addr, "/metrics", TIMEOUT).unwrap();
    assert_eq!(status, 200);
    let metric = |name: &str| -> u64 {
        body.lines()
            .find_map(|l| l.strip_prefix(name).and_then(|v| v.trim().parse().ok()))
            .unwrap_or_else(|| panic!("metric {name} missing:\n{body}"))
    };
    let total = metric("esh_shards_total");
    let loaded = metric("esh_shards_loaded");
    let fanout = metric("esh_shard_fanout_total");
    assert_eq!(total, summary.shards as u64);
    assert!(loaded > 0, "the query touched no shards at all?");
    assert!(
        loaded < total,
        "serving one query loaded every shard ({loaded}/{total}) — lazy loading is broken"
    );
    assert!(fanout > 0 && fanout <= loaded, "fanout {fanout} vs loaded {loaded}");
    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn shard_budget_mb_caps_residency_while_serving_identically() {
    use esh_corpus::scale::{stream_scale_corpus, ScaleConfig};
    // A corpus whose shard payload comfortably exceeds 2MB (1600
    // procedures × ~1.9KB each, ~2.8MB, one target per shard), served
    // under `--shard-budget-mb 1`. Demand decoding only makes the records a
    // query prices resident, so one query stays well under the cap; a
    // run of queries from distinct sources accumulates past it, so the
    // daemon must evict shards — and still answer byte-identically to a
    // fully resident engine, with peak residency never crossing the cap.
    const BUDGET_MB: u64 = 1;
    let config = ScaleConfig::new(1600, 0x5e7e);
    let mut resident = SimilarityEngine::new(EngineConfig {
        threads: 1,
        ..EngineConfig::default()
    });
    let mut procs = Vec::new();
    stream_scale_corpus(&config, |p| {
        resident.add_target(p.display(), &p.proc_);
        procs.push(p);
    });
    let corpus = Corpus { procs };

    let dir = std::env::temp_dir().join(format!("esh-serve-budget-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    esh_index::write_sharded(&resident, &dir, 1).expect("write sharded");
    let manifest = esh_index::read_manifest(&dir).expect("manifest");
    assert!(
        manifest.shard_bytes > 2 * BUDGET_MB * 1024 * 1024,
        "fixture too small to make a {BUDGET_MB}MB budget binding: {}B of shards",
        manifest.shard_bytes
    );
    let mut lazy = esh_index::open_sharded(&dir).expect("open sharded");
    lazy.set_threads(1);

    // Queries from distinct sources, baselines computed offline before
    // the corpus moves into the server.
    let picks = [0usize, 21, 42, 63];
    let baselines: Vec<(String, Vec<esh_serve::protocol::RankedMatch>)> = picks
        .iter()
        .map(|&qi| {
            (
                corpus.procs[qi].display(),
                ranked_matches(&resident.query(&corpus.procs[qi].proc_), Some(TargetId(qi)), 10),
            )
        })
        .collect();

    let server = Server::start(
        lazy,
        corpus,
        ServeConfig {
            addr: "127.0.0.1:0".into(),
            workers: 1,
            queue_capacity: 8,
            read_timeout_ms: 2_000,
            shard_budget_mb: Some(BUDGET_MB),
            ..ServeConfig::default()
        },
    )
    .expect("bind loopback");
    let addr = server.local_addr().to_string();

    for (needle, expected) in &baselines {
        let resp = remote_query(&addr, &QueryRequest::new(needle), TIMEOUT).unwrap();
        assert_eq!(resp.outcome, Outcome::Ok, "{needle}");
        assert_eq!(resp.matches.len(), expected.len(), "{needle}");
        for (got, want) in resp.matches.iter().zip(expected) {
            assert_eq!(got.name, want.name, "{needle}");
            assert_eq!(got.ges.to_bits(), want.ges.to_bits(), "{}", want.name);
            assert_eq!(got.s_log.to_bits(), want.s_log.to_bits(), "{}", want.name);
            assert_eq!(got.s_vcp.to_bits(), want.s_vcp.to_bits(), "{}", want.name);
        }
    }

    let (status, body) = http_get(&addr, "/metrics", TIMEOUT).unwrap();
    assert_eq!(status, 200);
    let metric = |name: &str| -> u64 {
        body.lines()
            .find_map(|l| l.strip_prefix(name).and_then(|v| v.trim().parse().ok()))
            .unwrap_or_else(|| panic!("metric {name} missing:\n{body}"))
    };
    let budget_bytes = BUDGET_MB * 1024 * 1024;
    let evicted = metric("esh_shards_evicted_total");
    let resident_bytes = metric("esh_shards_resident_bytes");
    let peak = metric("esh_shards_resident_bytes_peak");
    let decoded = metric("esh_shard_decoded_bytes");
    let mapped = metric("esh_shard_mapped_bytes");
    assert!(evicted > 0, "the serve-configured budget never evicted a shard");
    assert!(
        resident_bytes <= budget_bytes,
        "settled residency {resident_bytes}B exceeds the {budget_bytes}B budget"
    );
    assert!(
        peak <= budget_bytes,
        "peak residency {peak}B exceeds the {budget_bytes}B budget"
    );
    assert!(
        decoded > 0 && decoded < mapped,
        "demand decode should decode a strict subset of mapped bytes ({decoded}/{mapped})"
    );
    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}
