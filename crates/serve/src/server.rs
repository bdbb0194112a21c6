//! The daemon: accept loop, bounded admission, one thread per
//! connection, and graceful drain.
//!
//! Thread shape: one acceptor, plus one thread per admitted connection,
//! all sharing one read-only [`SimilarityEngine`]. At most
//! [`ServeConfig::workers`] connections are open at once; the acceptor
//! answers a connection that arrives while they are all taken
//! *immediately* with a typed [`Outcome::Overloaded`] response (HTTP
//! probes get a 503), so no connection ever waits unserved. A
//! connection's slot frees when its thread has finished with it, before
//! the daemon closes the socket: a client that has seen the daemon
//! close (the HTTP shim, `@shutdown`) can reconnect at once, while a
//! slot the client closed frees as soon as its thread reads the close.
//!
//! The protocol is *pipelined*: one socket may carry many
//! newline-delimited requests. A connection's thread reads a request
//! line, resolves it, scores it, writes its response and only then
//! reads the next line, so responses come back in request order because
//! one thread writes them in order, and one-shot clients (one request,
//! one response, close) are the single-request case. A client that
//! floods its socket meets TCP backpressure; its thread still buffers
//! at most `MAX_LINE_BYTES` of an unterminated line.
//!
//! Each request names a corpus member, which the engine scores from its
//! target record ([`Query::Target`]: no strand is extracted or lifted
//! per request) in one single-item [`SimilarityEngine::query_batch`]
//! call. Since a connection runs one engine pass at a time, `workers`
//! also bounds the engine passes in flight; each pass's matrix pricing
//! shares the cores with the others (see `EngineConfig::threads`).
//!
//! Deadlines: a connection's first request's budget counts from
//! admission; a later pipelined request's budget counts from when its
//! line is parsed, which is after its predecessors were answered, so
//! waiting behind them does not count against it. A zero or expired
//! budget is answered `DeadlineExceeded` ("expired in the queue")
//! before scoring, and scoring in flight is cancelled cooperatively
//! between VCP tiles via a [`CancelToken`] carrying the request's
//! deadline. The wire field `queue_ms` measures parse-to-scoring, which
//! is about 0.
//!
//! Shutdown: `std` exposes no signal-handler API, so the drain is driven
//! by a control request on the wire (`{"query":"@shutdown"}`) or by
//! [`Server::request_shutdown`] in-process. Either path sets the flag
//! and self-connects once to unblock `accept`; the acceptor stops
//! admitting, each connection answers every line it reads before its
//! next idle tick and then closes, and [`Server::join`] returns the
//! final counters once every connection thread has exited.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use esh_core::{BatchQuery, CancelToken, Query, QueryError, SimilarityEngine, TargetId};
use esh_corpus::Corpus;

use crate::metrics::{ServerStats, StatsSnapshot};
use crate::protocol::{encode_line, ranked_matches, Outcome, QueryRequest, QueryResponse};

/// Connections poll their socket in chunks of this length so they can
/// notice shutdown and account idle time without holding a long
/// blocking read.
const READ_CHUNK: Duration = Duration::from_millis(100);

/// Longest request line a connection buffers. A client that sends more
/// bytes than this without a newline gets one `BadRequest` and its
/// connection is closed, so neither its memory nor its scanning cost can
/// grow.
const MAX_LINE_BYTES: usize = 64 * 1024;

/// Daemon configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Listen address; port 0 picks an ephemeral port.
    pub addr: String,
    /// Connections served concurrently, each by its own thread for its
    /// whole pipelined lifetime — the only admission bound: a
    /// connection arriving while this many are open is answered
    /// [`Outcome::Overloaded`] at once. Since each connection runs one
    /// engine pass at a time, this also bounds concurrent engine passes.
    pub workers: usize,
    /// Deadline applied when a request carries none, in milliseconds.
    pub default_deadline_ms: u64,
    /// Match-list length when a request carries no `top_n`.
    pub default_top_n: usize,
    /// How long a connection may stay silent (no bytes) before the
    /// daemon closes it, in milliseconds.
    pub read_timeout_ms: u64,
    /// Memory budget for lazily loaded index shards, in mebibytes.
    /// `None` (the default) never evicts; `Some(mb)` bounds resident
    /// shard payload bytes, evicting least-recently-used shards. Only
    /// meaningful when serving a sharded `.eshx` index.
    pub shard_budget_mb: Option<u64>,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            addr: "127.0.0.1:4891".into(),
            workers: 32,
            default_deadline_ms: 10_000,
            default_top_n: 10,
            read_timeout_ms: 2_000,
            shard_budget_mb: None,
        }
    }
}

/// State shared by the acceptor, the connection threads and the
/// [`Server`] handle.
struct Shared {
    /// The engine, whose target names requests resolve against and
    /// responses echo.
    engine: SimilarityEngine,
    config: ServeConfig,
    stats: ServerStats,
    /// Connections admitted and not yet released. Only the acceptor
    /// raises it, so its admission check cannot overshoot the cap.
    open: AtomicUsize,
    shutdown: AtomicBool,
    addr: SocketAddr,
}

impl Shared {
    fn request_shutdown(&self) {
        if self.shutdown.swap(true, Ordering::SeqCst) {
            return; // already draining
        }
        // Unblock the acceptor's `accept()`; it re-checks the flag before
        // admitting, so this dummy connection is dropped on the floor.
        let _ = TcpStream::connect(self.addr);
    }
}

/// Checks that `corpus` is the corpus `engine`'s targets were built
/// from, in order: as many procedures as targets, and each procedure's
/// display name equal to its target's name. A mismatch is an
/// [`std::io::ErrorKind::InvalidInput`] error naming the first
/// disagreement, since queries resolved against one and scored against
/// the other would silently answer for the wrong procedure.
pub fn check_mirror(engine: &SimilarityEngine, corpus: &Corpus) -> std::io::Result<()> {
    let invalid = |msg: String| Err(std::io::Error::new(std::io::ErrorKind::InvalidInput, msg));
    if engine.target_count() != corpus.procs.len() {
        return invalid(format!(
            "the engine has {} targets but the corpus has {} procedures",
            engine.target_count(),
            corpus.procs.len()
        ));
    }
    for (t, p) in corpus.procs.iter().enumerate() {
        let (target, name) = (engine.target_name(TargetId(t)), p.display());
        if target != name {
            return invalid(format!(
                "target {t} is `{target}` but corpus procedure {t} is `{name}`"
            ));
        }
    }
    Ok(())
}

/// A running daemon. Dropping the handle without calling
/// [`Server::shutdown`] or [`Server::join`] leaves the threads serving —
/// always drain explicitly.
pub struct Server {
    shared: Arc<Shared>,
    acceptor: JoinHandle<()>,
}

impl Server {
    /// Binds `config.addr` and starts serving `engine` over `corpus`.
    ///
    /// The corpus must be the one the engine's targets were built from,
    /// in order ([`check_mirror`]); the daemon keeps none of it. Query
    /// substrings resolve against the engine's target names, a match is
    /// scored from its target record, and the matched target is
    /// excluded from that query's results (the offline CLI's
    /// self-filter).
    ///
    /// # Errors
    ///
    /// [`std::io::ErrorKind::InvalidInput`] when the corpus does not
    /// mirror the engine's targets; otherwise whatever binding fails
    /// with (an unparseable address is `InvalidInput` too, so callers
    /// that must tell the two apart run [`check_mirror`] first).
    pub fn start(
        engine: SimilarityEngine,
        corpus: Corpus,
        config: ServeConfig,
    ) -> std::io::Result<Server> {
        check_mirror(&engine, &corpus)?;
        if let Some(mb) = config.shard_budget_mb {
            engine.set_shard_budget(mb.saturating_mul(1024 * 1024));
        }
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            engine,
            config,
            stats: ServerStats::new(),
            open: AtomicUsize::new(0),
            shutdown: AtomicBool::new(false),
            addr,
        });
        let acceptor = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || accept_loop(&shared, &listener))
        };
        Ok(Server { shared, acceptor })
    }

    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// Point-in-time server counters.
    pub fn stats(&self) -> StatsSnapshot {
        self.shared.stats.snapshot()
    }

    /// The `/metrics` payload, rendered in-process.
    pub fn metrics(&self) -> String {
        render_metrics(&self.shared)
    }

    /// Begins a graceful drain: stop admitting, finish open connections.
    pub fn request_shutdown(&self) {
        self.shared.request_shutdown();
    }

    /// Blocks until the daemon has drained and every thread has exited,
    /// then returns the final counters. Call [`Server::request_shutdown`]
    /// first (or let a client send `@shutdown`), otherwise this waits
    /// indefinitely — which is exactly what `esh serve` wants.
    pub fn join(self) -> StatsSnapshot {
        self.acceptor.join().expect("acceptor thread panicked");
        self.shared.stats.snapshot()
    }

    /// [`Server::request_shutdown`] followed by [`Server::join`].
    pub fn shutdown(self) -> StatsSnapshot {
        self.request_shutdown();
        self.join()
    }
}

/// Admits connections up to [`ServeConfig::workers`] open at once, each
/// served by its own scoped thread, and rejects the rest at once. The
/// scope joins every connection thread, so the acceptor returns only
/// once the drain has finished.
fn accept_loop(shared: &Shared, listener: &TcpListener) {
    let cap = shared.config.workers.max(1);
    std::thread::scope(|scope| {
        for stream in listener.incoming() {
            if shared.shutdown.load(Ordering::SeqCst) {
                break;
            }
            let Ok(stream) = stream else { continue };
            let open = shared.open.load(Ordering::SeqCst);
            if open >= cap {
                reject(
                    shared,
                    stream,
                    &format!("connection limit of {cap} reached"),
                );
                continue;
            }
            shared.open.fetch_add(1, Ordering::SeqCst);
            shared.stats.observe_connections(open + 1);
            let admitted = Instant::now();
            scope.spawn(move || {
                serve_connection(shared, &stream, admitted);
                // Free the slot before the socket closes, so a client that
                // has seen the close can reconnect at once.
                shared.open.fetch_sub(1, Ordering::SeqCst);
            });
        }
    });
}

/// Serves one admitted connection for its whole pipelined lifetime:
/// reads newline-delimited requests and answers each in turn. Returns
/// when the client closes, the idle budget runs out, or the daemon
/// drains.
fn serve_connection(shared: &Shared, mut stream: &TcpStream, admitted: Instant) {
    let _ = stream.set_read_timeout(Some(READ_CHUNK));
    let idle_limit = Duration::from_millis(shared.config.read_timeout_ms.max(1));
    let mut buf: Vec<u8> = Vec::new();
    // `buf[..scanned]` is known to hold no newline: each byte is scanned
    // once, not once per read.
    let mut scanned = 0;
    let mut chunk = [0u8; 4096];
    let mut idle = Duration::ZERO;
    // Set until the first request: its budget counts from admission.
    let mut admitted = Some(admitted);
    loop {
        while let Some(pos) = buf[scanned..].iter().position(|&b| b == b'\n') {
            let raw: Vec<u8> = buf.drain(..=scanned + pos).collect();
            scanned = 0;
            let line = String::from_utf8_lossy(&raw).trim().to_string();
            if line.is_empty() {
                continue;
            }
            let first = admitted.take();
            if first.is_some() && (line.starts_with("GET ") || line.starts_with("HEAD ")) {
                shared.stats.record_http();
                respond_http(shared, stream, &line);
                return; // the HTTP shim is Connection: close
            }
            let received = first.unwrap_or_else(Instant::now);
            let response = answer(shared, &line, received);
            let stop = response.outcome == Outcome::ShuttingDown;
            respond(shared, stream, received, response);
            if stop {
                return; // @shutdown acknowledged; stop reading
            }
        }
        scanned = buf.len();
        if scanned > MAX_LINE_BYTES {
            let response = QueryResponse::status(
                Outcome::BadRequest,
                Some(format!(
                    "bad request: line longer than {MAX_LINE_BYTES} bytes"
                )),
            );
            respond(shared, stream, Instant::now(), response);
            return;
        }
        match stream.read(&mut chunk) {
            Ok(0) => return, // client closed
            Ok(n) => {
                buf.extend_from_slice(&chunk[..n]);
                idle = Duration::ZERO;
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                idle += READ_CHUNK;
                if shared.shutdown.load(Ordering::SeqCst) || idle >= idle_limit {
                    return; // draining, or silent too long
                }
            }
            Err(_) => return,
        }
    }
}

/// Resolves and scores one request line whose budget counts from
/// `received`. Parse errors, unknown names and control requests are
/// answered without engine work; a request past its deadline is answered
/// `DeadlineExceeded` before scoring.
fn answer(shared: &Shared, line: &str, received: Instant) -> QueryResponse {
    let request = match serde_json::from_str::<QueryRequest>(line) {
        Err(e) => {
            return QueryResponse::status(Outcome::BadRequest, Some(format!("bad request: {e}")))
        }
        Ok(request) => request,
    };
    if request.query == "@shutdown" {
        shared.request_shutdown();
        return QueryResponse::status(Outcome::ShuttingDown, None);
    }
    let engine = &shared.engine;
    let Some(qi) = (0..engine.target_count())
        .position(|t| engine.target_name(TargetId(t)).contains(&request.query))
    else {
        return QueryResponse::status(
            Outcome::NotFound,
            Some(format!("no procedure matching `{}`", request.query)),
        );
    };
    let budget_ms = request
        .deadline_ms
        .unwrap_or(shared.config.default_deadline_ms);
    let top_n = request
        .top_n
        .map_or(shared.config.default_top_n, |n| n as usize);
    let deadline = received + Duration::from_millis(budget_ms);
    let started = Instant::now();
    let mut response = if started >= deadline {
        QueryResponse::status(
            Outcome::DeadlineExceeded,
            Some(format!("deadline of {budget_ms}ms expired in the queue")),
        )
    } else {
        shared.stats.record_scored();
        let item = BatchQuery {
            query: Query::Target(TargetId(qi)),
            cancel: CancelToken::with_deadline(deadline),
        };
        match engine
            .query_batch(&[item])
            .pop()
            .expect("one item, one result")
        {
            Ok(scores) => QueryResponse {
                outcome: Outcome::Ok,
                error: None,
                query: Some(engine.target_name(TargetId(qi)).to_string()),
                matches: ranked_matches(&scores, Some(TargetId(qi)), top_n),
                queue_ms: 0,
                latency_ms: 0,
            },
            Err(QueryError::Cancelled) => QueryResponse::status(
                Outcome::DeadlineExceeded,
                Some(format!("deadline of {budget_ms}ms expired during scoring")),
            ),
            Err(QueryError::Corrupted(e)) => {
                QueryResponse::status(Outcome::Internal, Some(e.to_string()))
            }
        }
    };
    response.queue_ms = started.saturating_duration_since(received).as_millis() as u64;
    response
}

/// Finalizes and writes one response: stamps latency since `received`,
/// records the outcome. A vanished client only costs the write.
fn respond(
    shared: &Shared,
    mut stream: &TcpStream,
    received: Instant,
    mut response: QueryResponse,
) {
    response.latency_ms = received.elapsed().as_millis() as u64;
    shared.stats.record_outcome(response.outcome);
    shared.stats.record_latency_ms(response.latency_ms);
    let _ = stream.write_all(encode_line(&response).as_bytes());
}

/// The minimal HTTP/1.1 shim: `/healthz` and `/metrics`, 404 otherwise.
fn respond_http(shared: &Shared, mut stream: &TcpStream, request_line: &str) {
    let path = request_line.split_whitespace().nth(1).unwrap_or("/");
    let (status, body) = match path {
        "/healthz" => ("200 OK", "ok\n".to_string()),
        "/metrics" => ("200 OK", render_metrics(shared)),
        _ => ("404 Not Found", "not found\n".to_string()),
    };
    let _ = stream.write_all(http_payload(status, &body).as_bytes());
}

fn render_metrics(shared: &Shared) -> String {
    shared.stats.render(
        &shared.engine.cache_stats(),
        &shared.engine.equiv_stats(),
        &shared.engine.prefilter_stats(),
        &shared.engine.shard_stats(),
        shared.engine.query_strands_lifted(),
        shared.open.load(Ordering::SeqCst),
    )
}

fn http_payload(status: &str, body: &str) -> String {
    format!(
        "HTTP/1.1 {status}\r\nContent-Type: text/plain\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )
}

/// Admission-control rejection with [`Outcome::Overloaded`]. Reads the
/// first line briefly (bounded at 100ms so a slow client cannot stall
/// the acceptor for long) only to answer in the dialect the client
/// speaks: HTTP probes get a 503, JSON clients get a typed
/// [`QueryResponse`].
fn reject(shared: &Shared, mut stream: TcpStream, detail: &str) {
    shared.stats.record_outcome(Outcome::Overloaded);
    let _ = stream.set_read_timeout(Some(Duration::from_millis(100)));
    let mut line = String::new();
    let _ = BufReader::new(&stream).read_line(&mut line);
    if line.starts_with("GET ") || line.starts_with("HEAD ") {
        let _ = stream
            .write_all(http_payload("503 Service Unavailable", &format!("{detail}\n")).as_bytes());
    } else {
        let response = QueryResponse::status(Outcome::Overloaded, Some(detail.to_string()));
        let _ = stream.write_all(encode_line(&response).as_bytes());
    }
    let _ = stream.flush();
}
