//! End-to-end daemon tests over real loopback sockets: correctness vs
//! the offline engine, typed rejections, deadlines, the HTTP shim and
//! graceful drain.
//!
//! A connection's slot frees when the daemon sees the client close, so
//! tests that open one-shot connections one after another run with a
//! cap above 1.

use std::io::Write;
use std::net::TcpStream;
use std::time::{Duration, Instant};

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
    engine_with(
        corpus,
        EngineConfig {
            threads: 1,
            ..EngineConfig::default()
        },
    )
}

fn engine_with(corpus: &Corpus, config: EngineConfig) -> SimilarityEngine {
    let mut engine = SimilarityEngine::new(config);
    for p in &corpus.procs {
        engine.add_target(p.display(), &p.proc_);
    }
    engine
}

fn start(workers: usize, read_timeout_ms: u64) -> (Server, String) {
    let corpus = tiny_corpus();
    let server = Server::start(
        engine_over(&corpus),
        corpus,
        ServeConfig {
            addr: "127.0.0.1:0".into(),
            workers,
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
    let expected = ranked_matches(
        &offline.query(&corpus.procs[0].proc_),
        Some(TargetId(0)),
        10,
    );

    let (server, addr) = start(2, 2_000);
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
    let (server, addr) = start(1, 2_000);
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
    let (server, addr) = start(1, 2_000);
    let resp = remote_query(&addr, &QueryRequest::new("no-such-proc"), TIMEOUT).unwrap();
    assert_eq!(resp.outcome, Outcome::NotFound);
    assert!(resp.error.unwrap().contains("no-such-proc"));
    assert!(resp.matches.is_empty());
    server.shutdown();
}

#[test]
fn malformed_line_is_bad_request() {
    let (server, addr) = start(1, 2_000);
    let stream = TcpStream::connect(&addr).unwrap();
    stream.set_read_timeout(Some(TIMEOUT)).unwrap();
    let mut w = stream.try_clone().unwrap();
    w.write_all(b"this is not json\n").unwrap();
    let mut line = String::new();
    std::io::BufRead::read_line(&mut std::io::BufReader::new(stream), &mut line).unwrap();
    let resp: esh_serve::protocol::QueryResponse = esh_serve::protocol::decode_line(&line).unwrap();
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
fn hostile_lines_are_bad_requests_and_the_daemon_keeps_serving() {
    let mut nested = vec![b'['; 60_000];
    nested.push(b'\n');
    let cases: [(&str, Vec<u8>, &str); 3] = [
        // Under the line cap, but deep enough to overflow a reader's
        // stack if the parser recursed without a depth limit.
        ("deep nesting", nested, "nesting"),
        // No newline: one response, then the daemon closes only this
        // connection.
        ("unterminated line", vec![b'x'; 1 << 20], "line longer than"),
        // Invalid UTF-8 outside any JSON string: the reader's lossy
        // decode leaves replacement characters, which no request parses
        // from.
        (
            "non-UTF-8 line",
            vec![0xff, 0xfe, b'{', 0x80, 0xc3, b'\n'],
            "unexpected input",
        ),
    ];
    for (what, payload, error) in cases {
        let (server, addr) = start(2, 2_000);
        let (line, rest) = hostile_exchange(&addr, payload);
        let resp: esh_serve::protocol::QueryResponse =
            esh_serve::protocol::decode_line(&line).unwrap();
        assert_eq!(resp.outcome, Outcome::BadRequest, "{what}");
        let detail = resp.error.unwrap();
        assert!(detail.contains(error), "{what}: {detail}");
        assert!(rest.is_empty(), "{what}: one response, then EOF");
        assert_still_serves(&addr);
        let stats = server.shutdown();
        assert_eq!((stats.bad_request, stats.ok), (1, 1), "{what}");
    }
}

#[test]
fn zero_deadline_expires_in_the_queue() {
    let (server, addr) = start(1, 2_000);
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
    let (server, addr) = start(2, 2_000);
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
fn all_slots_open_yields_typed_overload_rejections() {
    // One connection slot. An idle connection (it sends nothing) holds
    // it for the duration of the read timeout, so a real request must be
    // rejected at admission.
    let (server, addr) = start(1, 3_000);
    // Accepted in connection order, so it holds the slot before the query
    // arrives.
    let _stall = TcpStream::connect(&addr).unwrap();

    let resp = remote_query(&addr, &QueryRequest::new("ftp_syst"), TIMEOUT).unwrap();
    assert_eq!(resp.outcome, Outcome::Overloaded);
    assert!(resp
        .error
        .unwrap()
        .contains("connection limit of 1 reached"));

    // An HTTP probe during overload is load-shed in its own dialect.
    let (status, _) = http_get(&addr, "/healthz", TIMEOUT).unwrap();
    assert_eq!(status, 503);

    let stats = server.shutdown();
    assert!(stats.overloaded >= 2);
    assert!(stats.connections_hwm <= 1, "connection bound was violated");
}

#[test]
fn connections_beyond_workers_are_refused_at_once_and_served_once_a_slot_frees() {
    // Two slots held by long-lived pipelined connections. Two more
    // connections must be answered `Overloaded` at once — a client read
    // timeout of 1 s, well under the read timeout and the default
    // deadline, turns a silent wait into a failure — and once a served
    // connection closes, a new one must be served.
    const PATIENCE: Duration = Duration::from_secs(1);
    let corpus = tiny_corpus();
    let expected = offline_top10(&corpus);
    let names: Vec<String> = corpus.procs.iter().map(|p| p.display()).collect();
    let (server, addr) = start(2, 5_000);
    let pipeline = |client: &mut PipelinedClient| {
        for name in &names {
            client.send(&QueryRequest::new(name)).unwrap();
        }
        expect_in_order(client, &names, &expected, 0..names.len());
    };
    let mut served: Vec<PipelinedClient> = (0..2)
        .map(|_| PipelinedClient::connect(&addr, TIMEOUT).unwrap())
        .collect();
    for client in &mut served {
        pipeline(client);
    }

    for k in 0..2 {
        let asked = Instant::now();
        let mut client = PipelinedClient::connect(&addr, PATIENCE).unwrap();
        let resp = client
            .query(&QueryRequest::new("ftp_syst"))
            .unwrap_or_else(|e| panic!("connection {k} beyond the cap was left waiting: {e}"));
        assert_eq!(resp.outcome, Outcome::Overloaded, "connection {k}");
        assert!(asked.elapsed() < PATIENCE, "connection {k}");
    }
    // The refusals cost the served connections nothing.
    for client in &mut served {
        pipeline(client);
    }

    drop(served.pop());
    let polled = Instant::now();
    loop {
        let mut client = PipelinedClient::connect(&addr, PATIENCE).unwrap();
        let resp = client.query(&QueryRequest::new(&names[0])).unwrap();
        if resp.outcome == Outcome::Ok {
            pipeline(&mut client);
            break;
        }
        assert_eq!(resp.outcome, Outcome::Overloaded);
        assert!(
            polled.elapsed() < Duration::from_secs(2),
            "no slot freed after a served connection closed"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    drop(served);
    let stats = server.shutdown();
    assert!(stats.overloaded >= 2);
    assert!(stats.connections_hwm <= 2, "connection bound was violated");
}

#[test]
fn shutdown_drains_admitted_requests() {
    // An idle connection and two real requests, each on its own
    // connection. Shutdown must still answer both (drain), not drop
    // them.
    let (server, addr) = start(3, 1_000);
    let _stall = TcpStream::connect(&addr).unwrap();

    let send = |q: &str| {
        let stream = TcpStream::connect(&addr).unwrap();
        stream.set_read_timeout(Some(TIMEOUT)).unwrap();
        let mut w = stream.try_clone().unwrap();
        w.write_all(esh_serve::protocol::encode_line(&QueryRequest::new(q)).as_bytes())
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
    let (server, addr) = start(1, 2_000);
    let mut client = PipelinedClient::connect(&addr, TIMEOUT).unwrap();
    // Write the whole pipeline before reading anything: every corpus
    // procedure twice, then an unknown name. They must come back in
    // request order.
    let names: Vec<String> = corpus.procs.iter().map(|p| p.display()).collect();
    for name in names.iter().chain(names.iter()) {
        client.send(&QueryRequest::new(name)).unwrap();
    }
    client.send(&QueryRequest::new("no-such-proc")).unwrap();
    expect_in_order(
        &mut client,
        &names,
        &expected,
        (0..names.len()).chain(0..names.len()),
    );
    let resp = client.recv().unwrap();
    assert_eq!(resp.outcome, Outcome::NotFound);
    drop(client);
    let stats = server.shutdown();
    assert_eq!(stats.ok, 8);
    assert_eq!(stats.not_found, 1);
    assert_eq!(stats.batches, 8, "one engine call per scored request");
}

#[test]
fn concurrent_pipelines_each_answer_in_order_and_match_offline() {
    // Four pipelined connections, each naming every corpus procedure
    // twice: their engine passes run concurrently, and each socket must
    // still be answered in request order, bit-identical to the offline
    // ranking.
    let corpus = tiny_corpus();
    let expected = offline_top10(&corpus);
    let (server, addr) = start(4, 2_000);
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

/// The value of the label-free series `name` in the daemon's `/metrics`
/// rendering, read in-process.
fn metric(server: &Server, name: &str) -> u64 {
    let text = server.metrics();
    text.lines()
        .find_map(|l| l.strip_prefix(name)?.strip_prefix(' ')?.trim().parse().ok())
        .unwrap_or_else(|| panic!("metric {name} missing:\n{text}"))
}

/// Sustained pipelined load on a warmed daemon that runs the shipped
/// engine setting (`EngineConfig::default()`: concurrent passes share
/// the matrix pass's helper threads). One pass over the query set warms
/// it; then a burst of `BURST` requests per connection on four
/// connections cycles through the corpus names, so the same names are
/// scored concurrently. Gates:
/// - every response is bit-identical to the single-threaded offline
///   ranking;
/// - the warm-up computes probe sketches
///   (`esh_prefilter_probe_sketches_total` > 0), and after it the daemon
///   computes none and lifts no query strand
///   (`esh_query_strands_lifted_total`): the hot path stays free of
///   concrete evaluation and of strand extraction.
#[test]
fn warmed_pipelined_burst_answers_identically_without_new_sketches_or_lifts() {
    const CONNECTIONS: usize = 4;
    const BURST: usize = 16;
    const STILL: [&str; 2] = [
        "esh_prefilter_probe_sketches_total",
        "esh_query_strands_lifted_total",
    ];
    let corpus = tiny_corpus();
    let expected = offline_top10(&corpus);
    let names: Vec<String> = corpus.procs.iter().map(|p| p.display()).collect();
    let server = Server::start(
        engine_with(&corpus, EngineConfig::default()),
        corpus,
        ServeConfig {
            addr: "127.0.0.1:0".into(),
            // The warm-up connection's slot frees only once the daemon
            // reads its close, which may come after the burst connects.
            workers: CONNECTIONS + 1,
            read_timeout_ms: 2_000,
            ..ServeConfig::default()
        },
    )
    .expect("bind loopback");
    let addr = server.local_addr().to_string();

    let mut warm = PipelinedClient::connect(&addr, TIMEOUT).unwrap();
    for name in &names {
        warm.send(&QueryRequest::new(name)).unwrap();
    }
    expect_in_order(&mut warm, &names, &expected, 0..names.len());
    drop(warm);
    let warmed = STILL.map(|name| metric(&server, name));
    assert!(warmed[0] > 0, "the warm-up computed no probe sketch");

    std::thread::scope(|scope| {
        for c in 0..CONNECTIONS {
            let (addr, names, expected) = (&addr, &names, &expected);
            scope.spawn(move || {
                // Offset per connection: different names are in flight
                // at once.
                let order = || (0..BURST).map(move |i| (c + i) % names.len());
                let mut client = PipelinedClient::connect(addr, TIMEOUT).unwrap();
                for qi in order() {
                    client.send(&QueryRequest::new(&names[qi])).unwrap();
                }
                expect_in_order(&mut client, names, expected, order());
            });
        }
    });

    for (name, before) in STILL.iter().zip(warmed) {
        assert_eq!(metric(&server, name), before, "{name} rose after warm-up");
    }
    let stats = server.shutdown();
    assert_eq!(stats.ok, (names.len() + CONNECTIONS * BURST) as u64);
}

#[test]
fn deadline_expiry_interleaves_with_live_pipelined_requests() {
    // A zero budget has expired by the time its connection comes to
    // score it: the zero-budget request must expire before scoring while
    // the requests around it complete, and order on the wire is
    // preserved.
    let (server, addr) = start(1, 2_000);
    let mut client = PipelinedClient::connect(&addr, TIMEOUT).unwrap();
    client.send(&QueryRequest::new("ftp_syst")).unwrap();
    client
        .send(&QueryRequest {
            query: "saturating_sum [icc".into(),
            top_n: None,
            deadline_ms: Some(0),
        })
        .unwrap();
    client
        .send(&QueryRequest::new("saturating_sum [clang"))
        .unwrap();
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
fn tight_deadline_cancels_cooperatively_without_wedging_the_connection() {
    // A 3ms budget expires either before scoring or mid-scoring
    // (cooperative cancellation between VCP tiles) — both are legal, but
    // the server must answer it *and* the unconstrained request behind
    // it, and a follow-up request on the same socket must still work.
    let (server, addr) = start(1, 2_000);
    let mut client = PipelinedClient::connect(&addr, TIMEOUT).unwrap();
    client
        .send(&QueryRequest {
            query: "ftp_syst [icc".into(),
            top_n: None,
            deadline_ms: Some(3),
        })
        .unwrap();
    client
        .send(&QueryRequest::new("saturating_sum [clang"))
        .unwrap();
    let tight = client.recv().unwrap();
    assert!(
        matches!(tight.outcome, Outcome::Ok | Outcome::DeadlineExceeded),
        "tight deadline produced {:?}",
        tight.outcome
    );
    let mate = client.recv().unwrap();
    assert_eq!(mate.outcome, Outcome::Ok, "the request behind must survive");
    let retry = client.query(&QueryRequest::new("ftp_syst [icc")).unwrap();
    assert_eq!(retry.outcome, Outcome::Ok, "connection stays usable");
    drop(client);
    server.shutdown();
}

#[test]
fn shutdown_drains_pipelined_requests_in_flight() {
    // Requests pipelined on admitted connections, then an immediate
    // drain while they are unread or being scored: every request sent
    // on an admitted connection must be answered before join returns,
    // and the responses stay in order.
    let (server, addr) = start(2, 2_000);
    let mut a = PipelinedClient::connect(&addr, TIMEOUT).unwrap();
    let mut b = PipelinedClient::connect(&addr, TIMEOUT).unwrap();
    // One unscored round trip each proves the connection was admitted.
    for c in [&mut a, &mut b] {
        let resp = c.query(&QueryRequest::new("no-such-proc")).unwrap();
        assert_eq!(resp.outcome, Outcome::NotFound);
    }
    a.send(&QueryRequest::new("ftp_syst")).unwrap();
    a.send(&QueryRequest::new("saturating_sum [icc")).unwrap();
    b.send(&QueryRequest::new("saturating_sum [clang")).unwrap();
    server.request_shutdown();
    for resp in [a.recv().unwrap(), a.recv().unwrap(), b.recv().unwrap()] {
        assert_eq!(
            resp.outcome,
            Outcome::Ok,
            "an in-flight request was dropped"
        );
    }
    drop(a);
    drop(b);
    let stats = server.join();
    assert_eq!(stats.ok, 3);
    assert_eq!(stats.not_found, 2);
}

#[test]
fn wire_shutdown_acknowledges_and_drains() {
    let (server, addr) = start(2, 2_000);
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
    let expected = ranked_matches(
        &resident.query(&corpus.procs[0].proc_),
        Some(TargetId(0)),
        10,
    );

    let server = Server::start(
        lazy,
        corpus,
        ServeConfig {
            addr: "127.0.0.1:0".into(),
            workers: 2,
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
    assert!(
        fanout > 0 && fanout <= loaded,
        "fanout {fanout} vs loaded {loaded}"
    );
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
                ranked_matches(
                    &resident.query(&corpus.procs[qi].proc_),
                    Some(TargetId(qi)),
                    10,
                ),
            )
        })
        .collect();

    let server = Server::start(
        lazy,
        corpus,
        ServeConfig {
            addr: "127.0.0.1:0".into(),
            workers: 2,
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
    assert!(
        evicted > 0,
        "the serve-configured budget never evicted a shard"
    );
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
