//! The daemon: accept loop, bounded admission, pipelined connection
//! readers, batch executors and graceful drain.
//!
//! Thread shape: one acceptor, `workers` connection readers, and one
//! batch executor per core ([`std::thread::available_parallelism`]), all
//! sharing one read-only [`SimilarityEngine`]. The
//! acceptor admits connections into a bounded queue (capacity
//! [`ServeConfig::queue_capacity`]) and rejects the overflow
//! *immediately* with a typed [`Outcome::Overloaded`] response —
//! backpressure is explicit, never a silently growing backlog. A reader
//! owns an admitted connection for its lifetime: the protocol is
//! *pipelined*, so one socket may carry many newline-delimited requests
//! and the reader keeps parsing while earlier requests are still being
//! scored. Responses come back in request order per connection — a
//! per-connection sequence number and reorder buffer (`ConnWriter`)
//! guarantee it, also when two executors finish a connection's requests
//! out of order — so one-shot clients (one request, one response, close)
//! keep working unchanged.
//!
//! Between the readers and the engine sits the batching tier: parsed
//! queries land in a pending queue, and an idle executor takes the
//! oldest one plus whatever is already queued behind it (at most
//! `BATCH_MAX`, 8, requests) and submits one
//! [`SimilarityEngine::query_batch`] call at once, without waiting for
//! more. Coalescing therefore comes only from work that queued while
//! every executor was busy. Each request names a
//! corpus member, which the engine scores from its target record
//! ([`Query::Target`]: no strand is extracted or lifted per request).
//! Requests naming the same member collapse into a single engine item
//! (their responses are built from the one shared score set, which
//! batching keeps byte-identical to a sequential query), and distinct
//! queries share the batch's verifier session (and the engine's
//! per-class probe sketches, which outlive every batch).
//!
//! Deadlines are measured from *admission*, so queue wait counts against
//! a request's budget; expired work is dropped at batch assembly before
//! it reaches the verifier, and in-flight work is cancelled
//! cooperatively between VCP tiles via [`CancelToken`]. Coalesced
//! requests share one token whose deadline is the *latest* member's —
//! a member with a tighter budget rides along rather than cancelling
//! work its batch-mates still want.
//!
//! Shutdown: `std` exposes no signal-handler API, so the drain is driven
//! by a control request on the wire (`{"query":"@shutdown"}`) or by
//! [`Server::request_shutdown`] in-process. Either path sets the flag,
//! wakes every thread, and self-connects once to unblock `accept`; the
//! acceptor stops admitting, readers finish every connection already
//! admitted (requests received before the idle timeout are still
//! answered), the executors drain the pending queue, and
//! [`Server::join`] returns the final counters.

use std::collections::{BTreeMap, VecDeque};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use esh_core::{BatchQuery, CancelToken, Query, QueryError, SimilarityEngine, TargetId};
use esh_corpus::Corpus;

use crate::metrics::{ServerStats, StatsSnapshot};
use crate::protocol::{encode_line, ranked_matches, Outcome, QueryRequest, QueryResponse};

/// Readers poll their socket in chunks of this length so they can notice
/// shutdown and account idle time without holding a long blocking read.
const READ_CHUNK: Duration = Duration::from_millis(100);

/// Longest request line a reader buffers. A client that sends more bytes
/// than this without a newline gets one `BadRequest` and its connection
/// is closed, so neither its memory nor its scanning cost can grow.
const MAX_LINE_BYTES: usize = 64 * 1024;

/// The pending (parsed-but-unscored) queue is bounded at
/// `queue_capacity * PENDING_FACTOR`; a pipelined client that floods one
/// connection gets typed `Overloaded` responses past the bound.
const PENDING_FACTOR: usize = 8;

/// Most requests one engine batch carries.
const BATCH_MAX: usize = 8;

/// Daemon configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Listen address; port 0 picks an ephemeral port.
    pub addr: String,
    /// Connection reader threads — the maximum number of connections
    /// served concurrently (a reader owns its connection for the whole
    /// pipelined lifetime).
    pub workers: usize,
    /// Admission queue bound: connections beyond this are rejected with
    /// [`Outcome::Overloaded`].
    pub queue_capacity: usize,
    /// Deadline applied when a request carries none, in milliseconds.
    pub default_deadline_ms: u64,
    /// Match-list length when a request carries no `top_n`.
    pub default_top_n: usize,
    /// How long a reader tolerates a silent connection (no bytes, no
    /// responses owed) before closing it, in milliseconds.
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
            workers: 2,
            queue_capacity: 32,
            default_deadline_ms: 10_000,
            default_top_n: 10,
            read_timeout_ms: 2_000,
            shard_budget_mb: None,
        }
    }
}

/// An admitted connection waiting for a reader.
struct Job {
    stream: TcpStream,
    admitted: Instant,
}

/// The write half of one pipelined connection: responses are delivered
/// by sequence number and written strictly in request order. Readers
/// allocate a sequence at parse time; whoever finishes a response
/// (reader for immediate outcomes, executor for scored ones) delivers it
/// here, and the reorder buffer holds results that finished early.
struct ConnWriter {
    inner: Mutex<ConnInner>,
    /// Sequences allocated but not yet written — the reader keeps the
    /// connection alive while this is non-zero.
    outstanding: AtomicUsize,
}

struct ConnInner {
    stream: TcpStream,
    /// Next sequence number to hand out.
    alloc: u64,
    /// Next sequence number the socket is owed.
    next: u64,
    /// Responses that finished ahead of an earlier request.
    ready: BTreeMap<u64, String>,
}

impl ConnWriter {
    fn new(stream: TcpStream) -> ConnWriter {
        ConnWriter {
            inner: Mutex::new(ConnInner {
                stream,
                alloc: 0,
                next: 0,
                ready: BTreeMap::new(),
            }),
            outstanding: AtomicUsize::new(0),
        }
    }

    /// Reserves the next in-order response slot.
    fn alloc_seq(&self) -> u64 {
        let mut inner = self.inner.lock().expect("conn poisoned");
        let seq = inner.alloc;
        inner.alloc += 1;
        self.outstanding.fetch_add(1, Ordering::SeqCst);
        seq
    }

    /// Hands over the response for `seq`; writes it (and any buffered
    /// successors) once every earlier sequence has been written.
    fn deliver(&self, seq: u64, line: String) {
        let mut inner = self.inner.lock().expect("conn poisoned");
        inner.ready.insert(seq, line);
        let mut wrote = false;
        while let Some(line) = {
            let next = inner.next;
            inner.ready.remove(&next)
        } {
            // A vanished client only costs us the write; the engine work
            // was shared with the rest of the batch anyway.
            let _ = inner.stream.write_all(line.as_bytes());
            inner.next += 1;
            self.outstanding.fetch_sub(1, Ordering::SeqCst);
            wrote = true;
        }
        if wrote {
            let _ = inner.stream.flush();
        }
    }

    /// Writes raw bytes (the HTTP shim) outside the sequence protocol.
    fn write_raw(&self, payload: &str) {
        let mut inner = self.inner.lock().expect("conn poisoned");
        let _ = inner.stream.write_all(payload.as_bytes());
        let _ = inner.stream.flush();
    }

    fn outstanding(&self) -> usize {
        self.outstanding.load(Ordering::SeqCst)
    }
}

/// One parsed query waiting for a batch executor.
struct Pending {
    conn: Arc<ConnWriter>,
    seq: u64,
    /// Resolved target index (also the self-filter exclusion).
    qi: usize,
    top_n: usize,
    admitted: Instant,
    deadline: Instant,
    budget_ms: u64,
}

/// State shared by the acceptor, readers, executors and the [`Server`]
/// handle.
struct Shared {
    /// The engine, whose target names requests resolve against and
    /// responses echo.
    engine: SimilarityEngine,
    config: ServeConfig,
    stats: ServerStats,
    queue: Mutex<VecDeque<Job>>,
    ready: Condvar,
    pending: Mutex<VecDeque<Pending>>,
    pending_ready: Condvar,
    /// Connections currently owned by a reader — the executors must not
    /// exit while one of these could still submit work.
    active_conns: AtomicUsize,
    shutdown: AtomicBool,
    addr: SocketAddr,
}

impl Shared {
    fn request_shutdown(&self) {
        if self.shutdown.swap(true, Ordering::SeqCst) {
            return; // already draining
        }
        // Notify under each queue's lock: a thread that checked the flag
        // before the swap still holds that lock until its wait begins, so
        // the wake-up cannot slip in between and leave it waiting forever.
        drop(self.queue.lock().expect("queue poisoned"));
        self.ready.notify_all();
        drop(self.pending.lock().expect("pending poisoned"));
        self.pending_ready.notify_all();
        // Unblock the acceptor's `accept()`; it re-checks the flag before
        // admitting, so this dummy connection is dropped on the floor.
        let _ = TcpStream::connect(self.addr);
    }

    fn pending_bound(&self) -> usize {
        self.config
            .queue_capacity
            .saturating_mul(PENDING_FACTOR)
            .max(1)
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
    readers: Vec<JoinHandle<()>>,
    executors: Vec<JoinHandle<()>>,
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
        let readers = config.workers.max(1);
        let executors = std::thread::available_parallelism().map_or(1, |n| n.get());
        let shared = Arc::new(Shared {
            engine,
            config,
            stats: ServerStats::new(),
            queue: Mutex::new(VecDeque::new()),
            ready: Condvar::new(),
            pending: Mutex::new(VecDeque::new()),
            pending_ready: Condvar::new(),
            active_conns: AtomicUsize::new(0),
            shutdown: AtomicBool::new(false),
            addr,
        });

        let acceptor = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || accept_loop(&shared, &listener))
        };
        let readers = (0..readers)
            .map(|_| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || reader_loop(&shared))
            })
            .collect();
        let executors = (0..executors)
            .map(|_| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || executor_loop(&shared))
            })
            .collect();

        Ok(Server {
            shared,
            acceptor,
            readers,
            executors,
        })
    }

    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// Batch executor threads: one per core.
    pub fn executors(&self) -> usize {
        self.executors.len()
    }

    /// Point-in-time server counters.
    pub fn stats(&self) -> StatsSnapshot {
        self.shared.stats.snapshot()
    }

    /// The `/metrics` payload, rendered in-process.
    pub fn metrics(&self) -> String {
        render_metrics(&self.shared)
    }

    /// Begins a graceful drain: stop admitting, finish queued work.
    pub fn request_shutdown(&self) {
        self.shared.request_shutdown();
    }

    /// Blocks until the daemon has drained and every thread has exited,
    /// then returns the final counters. Call [`Server::request_shutdown`]
    /// first (or let a client send `@shutdown`), otherwise this waits
    /// indefinitely — which is exactly what `esh serve` wants.
    pub fn join(self) -> StatsSnapshot {
        self.acceptor.join().expect("acceptor thread panicked");
        for r in self.readers {
            r.join().expect("reader thread panicked");
        }
        for e in self.executors {
            e.join().expect("executor thread panicked");
        }
        self.shared.stats.snapshot()
    }

    /// [`Server::request_shutdown`] followed by [`Server::join`].
    pub fn shutdown(self) -> StatsSnapshot {
        self.request_shutdown();
        self.join()
    }
}

fn accept_loop(shared: &Shared, listener: &TcpListener) {
    for stream in listener.incoming() {
        if shared.shutdown.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = stream else { continue };
        let mut queue = shared.queue.lock().expect("queue poisoned");
        if queue.len() >= shared.config.queue_capacity {
            drop(queue);
            reject(shared, stream, Outcome::Overloaded, "admission queue full");
        } else {
            queue.push_back(Job {
                stream,
                admitted: Instant::now(),
            });
            shared.stats.observe_queue_depth(queue.len());
            drop(queue);
            shared.ready.notify_one();
        }
    }
}

fn reader_loop(shared: &Shared) {
    loop {
        let job = {
            let mut queue = shared.queue.lock().expect("queue poisoned");
            loop {
                if let Some(job) = queue.pop_front() {
                    // Claimed under the queue lock, so an executor's exit
                    // check (queue empty AND no active connections) can
                    // never miss a connection in hand-off.
                    shared.active_conns.fetch_add(1, Ordering::SeqCst);
                    break job;
                }
                // Drain before exit: only stop once the queue is empty.
                if shared.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                queue = shared.ready.wait(queue).expect("queue poisoned");
            }
        };
        serve_connection(shared, job);
        shared.active_conns.fetch_sub(1, Ordering::SeqCst);
        shared.pending_ready.notify_all(); // let the executors re-check exit
    }
}

/// Serves one admitted connection for its whole pipelined lifetime:
/// reads newline-delimited requests, dispatches each, and keeps the
/// socket open while responses are still owed. Returns when the client
/// closes, the idle budget runs out, or the daemon drains.
fn serve_connection(shared: &Shared, job: Job) {
    let Job { stream, admitted } = job;
    let _ = stream.set_read_timeout(Some(READ_CHUNK));
    let Ok(mut read_half) = stream.try_clone() else {
        return;
    };
    let conn = Arc::new(ConnWriter::new(stream));
    let idle_limit = Duration::from_millis(shared.config.read_timeout_ms.max(1));
    let mut buf: Vec<u8> = Vec::new();
    // `buf[..scanned]` is known to hold no newline: each byte is scanned
    // once, not once per read.
    let mut scanned = 0;
    let mut chunk = [0u8; 4096];
    let mut idle = Duration::ZERO;
    let mut first_request = true;
    loop {
        while let Some(pos) = buf[scanned..].iter().position(|&b| b == b'\n') {
            let raw: Vec<u8> = buf.drain(..=scanned + pos).collect();
            scanned = 0;
            let line = String::from_utf8_lossy(&raw).trim().to_string();
            if line.is_empty() {
                continue;
            }
            // The first request's deadline budget starts at admission
            // (queue wait counts); later pipelined requests start their
            // clock when their line arrives.
            let request_admitted = if first_request {
                admitted
            } else {
                Instant::now()
            };
            if first_request && (line.starts_with("GET ") || line.starts_with("HEAD ")) {
                shared.stats.record_http();
                respond_http(shared, &conn, &line);
                return; // the HTTP shim is Connection: close
            }
            first_request = false;
            if !process_request(shared, &conn, &line, request_admitted) {
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
            respond_now(shared, &conn, conn.alloc_seq(), Instant::now(), response);
            return;
        }
        match read_half.read(&mut chunk) {
            Ok(0) => return, // client closed; late deliveries fail silently
            Ok(n) => {
                buf.extend_from_slice(&chunk[..n]);
                idle = Duration::ZERO;
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                idle += READ_CHUNK;
                let owed = conn.outstanding() > 0;
                if !owed && shared.shutdown.load(Ordering::SeqCst) {
                    return; // draining and this connection is settled
                }
                if !owed && idle >= idle_limit {
                    return; // silent too long with nothing outstanding
                }
            }
            Err(_) => return,
        }
    }
}

/// Dispatches one request line. Immediate outcomes (parse errors,
/// unknown names, control requests, pending-queue overflow) are answered
/// right here through the reorder buffer; real queries join the batch
/// queue. Returns `false` when the connection should stop reading
/// (an `@shutdown` acknowledgement).
fn process_request(shared: &Shared, conn: &Arc<ConnWriter>, line: &str, admitted: Instant) -> bool {
    let seq = conn.alloc_seq();
    let request = match serde_json::from_str::<QueryRequest>(line) {
        Err(e) => {
            let response =
                QueryResponse::status(Outcome::BadRequest, Some(format!("bad request: {e}")));
            respond_now(shared, conn, seq, admitted, response);
            return true;
        }
        Ok(request) => request,
    };
    if request.query == "@shutdown" {
        shared.request_shutdown();
        let response = QueryResponse::status(Outcome::ShuttingDown, None);
        respond_now(shared, conn, seq, admitted, response);
        return false;
    }
    let engine = &shared.engine;
    let Some(qi) = (0..engine.target_count())
        .position(|t| engine.target_name(TargetId(t)).contains(&request.query))
    else {
        let response = QueryResponse::status(
            Outcome::NotFound,
            Some(format!("no procedure matching `{}`", request.query)),
        );
        respond_now(shared, conn, seq, admitted, response);
        return true;
    };
    let budget_ms = request
        .deadline_ms
        .unwrap_or(shared.config.default_deadline_ms);
    let top_n = request
        .top_n
        .map_or(shared.config.default_top_n, |n| n as usize);
    let mut pending = shared.pending.lock().expect("pending poisoned");
    if pending.len() >= shared.pending_bound() {
        drop(pending);
        let response =
            QueryResponse::status(Outcome::Overloaded, Some("batch queue full".to_string()));
        respond_now(shared, conn, seq, admitted, response);
        return true;
    }
    pending.push_back(Pending {
        conn: Arc::clone(conn),
        seq,
        qi,
        top_n,
        admitted,
        deadline: admitted + Duration::from_millis(budget_ms),
        budget_ms,
    });
    drop(pending);
    shared.pending_ready.notify_one();
    true
}

/// Finalizes and delivers a response the reader produced itself (no
/// engine work): stamps latency, records it, hands it to the reorder
/// buffer.
fn respond_now(
    shared: &Shared,
    conn: &ConnWriter,
    seq: u64,
    admitted: Instant,
    mut response: QueryResponse,
) {
    response.latency_ms = admitted.elapsed().as_millis() as u64;
    shared.stats.record_outcome(response.outcome);
    shared.stats.record_latency_ms(response.latency_ms);
    conn.deliver(seq, encode_line(&response));
}

/// The batching tier, one loop per core: an idle executor takes the
/// next batch off the pending queue ([`take_batch`]) and executes it at
/// once. Exits only when the daemon is draining and no reader could
/// still submit work.
fn executor_loop(shared: &Shared) {
    loop {
        let batch = {
            let mut pending = shared.pending.lock().expect("pending poisoned");
            loop {
                if !pending.is_empty() {
                    break take_batch(&mut pending);
                }
                if shared.shutdown.load(Ordering::SeqCst)
                    && shared.active_conns.load(Ordering::SeqCst) == 0
                    && shared.queue.lock().expect("queue poisoned").is_empty()
                {
                    return;
                }
                let (guard, _) = shared
                    .pending_ready
                    .wait_timeout(pending, READ_CHUNK)
                    .expect("pending poisoned");
                pending = guard;
            }
        };
        execute_batch(shared, batch);
    }
}

/// Assembles one batch: the oldest pending request plus every request
/// already queued behind it, up to [`BATCH_MAX`]. Never waits for more —
/// coalescing comes only from work that queued while every executor was
/// busy.
fn take_batch<T>(pending: &mut VecDeque<T>) -> Vec<T> {
    let n = pending.len().min(BATCH_MAX);
    pending.drain(..n).collect()
}

/// Collapses batch members naming the same target (`qi`) into
/// one group, groups in first-seen order, members in queue order.
fn group_by_proc<T>(members: Vec<T>, qi: impl Fn(&T) -> usize) -> Vec<(usize, Vec<T>)> {
    let mut groups: Vec<(usize, Vec<T>)> = Vec::new();
    for m in members {
        let key = qi(&m);
        match groups.iter_mut().find(|(k, _)| *k == key) {
            Some((_, group)) => group.push(m),
            None => groups.push((key, vec![m])),
        }
    }
    groups
}

/// Runs one coalesced batch: expires dead requests, collapses members
/// naming the same target into a single engine item, submits
/// one [`SimilarityEngine::query_batch`] pass, and fans the shared
/// scores back out to every member.
fn execute_batch(shared: &Shared, batch: Vec<Pending>) {
    let started = Instant::now();
    let mut live: Vec<Pending> = Vec::new();
    for p in batch {
        if started >= p.deadline {
            let response = QueryResponse::status(
                Outcome::DeadlineExceeded,
                Some(format!(
                    "deadline of {}ms expired in the queue",
                    p.budget_ms
                )),
            );
            finish(shared, &p, started, response);
        } else {
            live.push(p);
        }
    }
    if live.is_empty() {
        return;
    }
    // The group's cancel deadline is its latest member's, so an impatient
    // rider never cancels work a batch-mate still wants.
    let size = live.len();
    let groups = group_by_proc(live, |p| p.qi);
    shared.stats.record_batch(size, groups.len());
    let items: Vec<BatchQuery> = groups
        .iter()
        .map(|(qi, members)| {
            let deadline = members
                .iter()
                .map(|p| p.deadline)
                .max()
                .expect("groups are non-empty");
            BatchQuery {
                query: Query::Target(TargetId(*qi)),
                cancel: CancelToken::with_deadline(deadline),
            }
        })
        .collect();
    let results = shared.engine.query_batch(&items);
    for ((qi, members), result) in groups.into_iter().zip(results) {
        match result {
            Ok(scores) => {
                for p in members {
                    let response = QueryResponse {
                        outcome: Outcome::Ok,
                        error: None,
                        query: Some(shared.engine.target_name(TargetId(qi)).to_string()),
                        matches: ranked_matches(&scores, Some(TargetId(qi)), p.top_n),
                        queue_ms: 0,
                        latency_ms: 0,
                    };
                    finish(shared, &p, started, response);
                }
            }
            Err(QueryError::Cancelled) => {
                for p in members {
                    let response = QueryResponse::status(
                        Outcome::DeadlineExceeded,
                        Some(format!(
                            "deadline of {}ms expired during scoring",
                            p.budget_ms
                        )),
                    );
                    finish(shared, &p, started, response);
                }
            }
            Err(QueryError::Corrupted(e)) => {
                // Only the members whose scoring touched the bad shard
                // fail; batch-mates over healthy shards got Ok above.
                for p in members {
                    let response = QueryResponse::status(Outcome::Internal, Some(e.to_string()));
                    finish(shared, &p, started, response);
                }
            }
        }
    }
}

/// Finalizes one batched response: stamps queue wait and latency,
/// records the outcome, delivers in request order.
fn finish(shared: &Shared, p: &Pending, started: Instant, mut response: QueryResponse) {
    response.queue_ms = started.saturating_duration_since(p.admitted).as_millis() as u64;
    response.latency_ms = p.admitted.elapsed().as_millis() as u64;
    shared.stats.record_outcome(response.outcome);
    shared.stats.record_latency_ms(response.latency_ms);
    p.conn.deliver(p.seq, encode_line(&response));
}

/// The minimal HTTP/1.1 shim: `/healthz` and `/metrics`, 404 otherwise.
fn respond_http(shared: &Shared, conn: &ConnWriter, request_line: &str) {
    let path = request_line.split_whitespace().nth(1).unwrap_or("/");
    let (status, body) = match path {
        "/healthz" => ("200 OK", "ok\n".to_string()),
        "/metrics" => ("200 OK", render_metrics(shared)),
        _ => ("404 Not Found", "not found\n".to_string()),
    };
    conn.write_raw(&http_payload(status, &body));
}

fn render_metrics(shared: &Shared) -> String {
    let queue_depth = shared.queue.lock().expect("queue poisoned").len();
    let pending_depth = shared.pending.lock().expect("pending poisoned").len();
    shared.stats.render(
        &shared.engine.cache_stats(),
        &shared.engine.equiv_stats(),
        &shared.engine.prefilter_stats(),
        &shared.engine.shard_stats(),
        shared.engine.query_strands_lifted(),
        queue_depth,
        pending_depth,
    )
}

fn http_payload(status: &str, body: &str) -> String {
    format!(
        "HTTP/1.1 {status}\r\nContent-Type: text/plain\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )
}

/// Admission-control rejection. Reads the first line briefly (bounded at
/// 100ms so a slow client cannot stall the acceptor for long) only to
/// answer in the dialect the client speaks: HTTP probes get a 503, JSON
/// clients get a typed [`QueryResponse`].
fn reject(shared: &Shared, mut stream: TcpStream, outcome: Outcome, detail: &str) {
    shared.stats.record_outcome(outcome);
    let _ = stream.set_read_timeout(Some(Duration::from_millis(100)));
    let mut line = String::new();
    if let Ok(reader) = stream.try_clone() {
        let _ = BufReader::new(reader).read_line(&mut line);
    }
    if line.starts_with("GET ") || line.starts_with("HEAD ") {
        let _ = stream
            .write_all(http_payload("503 Service Unavailable", &format!("{detail}\n")).as_bytes());
    } else {
        let response = QueryResponse::status(outcome, Some(detail.to_string()));
        let _ = stream.write_all(encode_line(&response).as_bytes());
    }
    let _ = stream.flush();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_batch_takes_the_head_and_what_is_queued_up_to_the_cap() {
        let mut pending: VecDeque<usize> = (0..BATCH_MAX + 2).collect();
        assert_eq!(take_batch(&mut pending), Vec::from_iter(0..BATCH_MAX));
        assert_eq!(
            take_batch(&mut pending),
            [BATCH_MAX, BATCH_MAX + 1],
            "never waits to fill the cap"
        );
        assert!(take_batch(&mut pending).is_empty());
    }

    #[test]
    fn queued_duplicate_names_share_one_engine_item() {
        // A pipeline naming each of four corpus procedures twice, all
        // queued before an executor goes idle: one batch, four engine
        // items, four coalesced requests.
        let mut pending: VecDeque<(u64, usize)> = [0, 1, 2, 3, 0, 1, 2, 3]
            .into_iter()
            .enumerate()
            .map(|(seq, qi)| (seq as u64, qi))
            .collect();
        let batch = take_batch(&mut pending);
        assert!(pending.is_empty());
        let size = batch.len();
        let groups = group_by_proc(batch, |&(_, qi)| qi);
        let keys: Vec<usize> = groups.iter().map(|(qi, _)| *qi).collect();
        assert_eq!(keys, [0, 1, 2, 3], "groups keep first-seen order");
        for (qi, members) in &groups {
            let seqs: Vec<u64> = members.iter().map(|&(seq, _)| seq).collect();
            assert_eq!(
                seqs,
                [*qi as u64, *qi as u64 + 4],
                "members keep queue order"
            );
        }
        let stats = ServerStats::new();
        stats.record_batch(size, groups.len());
        let s = stats.snapshot();
        assert_eq!(s.batches, 1);
        assert_eq!(s.coalesced_queries, 4);
        assert_eq!(s.batch_occupancy_hwm, 8);
    }
}
