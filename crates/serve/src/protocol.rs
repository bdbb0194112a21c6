//! The wire protocol: newline-delimited JSON over TCP.
//!
//! A connection is *pipelined*: it may carry any number of requests,
//! each a single JSON object on its own line, and the daemon answers
//! every request with one JSON line **in request order** — a client can
//! write several requests before reading the first response
//! ([`PipelinedClient`]), and the one-shot shape (one request, one
//! response, close — [`remote_query`]) is just the single-request
//! special case. The same [`QueryResponse`] schema backs `esh query
//! --json` (offline) and the daemon (remote), so a client can switch
//! between the two without re-parsing — the shared construction path is
//! [`ranked_matches`].
//!
//! The daemon also answers plain `GET /healthz` and `GET /metrics` on the
//! same port: the first line of a connection decides whether it is HTTP
//! (starts with `GET ` / `HEAD `) or a JSON request. [`http_get`] is the
//! matching minimal client.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

use esh_core::{QueryScores, TargetId};
use serde::{Deserialize, Serialize};

/// One query request. Serialized as a single JSON line.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct QueryRequest {
    /// Substring selecting the query procedure from the served corpus
    /// (same resolution rule as `esh query`). The reserved value
    /// `@shutdown` asks the daemon to drain and exit.
    pub query: String,
    /// Maximum number of matches to return (server default when absent).
    pub top_n: Option<u64>,
    /// Per-request deadline in milliseconds, measured from when the
    /// daemon parses the request's line — from admission, for a
    /// connection's first request (server default when absent).
    pub deadline_ms: Option<u64>,
}

impl QueryRequest {
    /// A request for `query` with server-default `top_n` and deadline.
    pub fn new(query: impl Into<String>) -> QueryRequest {
        QueryRequest {
            query: query.into(),
            top_n: None,
            deadline_ms: None,
        }
    }
}

/// Typed request outcome — the admission-control and deadline decisions
/// a client must be able to distinguish without parsing error strings.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Outcome {
    /// The query ran to completion; `matches` is populated.
    Ok,
    /// Rejected at admission: every connection slot was open.
    Overloaded,
    /// The deadline expired before or during scoring.
    DeadlineExceeded,
    /// No corpus procedure matched the query substring.
    NotFound,
    /// The request line was not a valid [`QueryRequest`]: not JSON,
    /// nested deeper than the parser accepts, or longer than 64 KiB (the
    /// daemon then closes that connection).
    BadRequest,
    /// Acknowledges an `@shutdown` request; the daemon is draining.
    ShuttingDown,
    /// The engine could not score the request because of a server-side
    /// fault (for example a corrupted index shard). The request was
    /// well-formed; retrying will not help until the operator fixes the
    /// index.
    Internal,
}

/// One ranked corpus target, scores exactly as the engine produced them
/// (the JSON encoding round-trips `f64` bit-for-bit).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RankedMatch {
    /// 1-based rank under GES ordering.
    pub rank: u64,
    /// Target display name.
    pub name: String,
    /// Full-method GES score.
    pub ges: f64,
    /// S-LOG ablation score.
    pub s_log: f64,
    /// S-VCP ablation score.
    pub s_vcp: f64,
}

/// The response line.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct QueryResponse {
    /// What happened to the request.
    pub outcome: Outcome,
    /// Human-readable detail for non-`Ok` outcomes.
    pub error: Option<String>,
    /// Resolved display name of the query procedure (on `Ok`).
    pub query: Option<String>,
    /// Ranked matches, best first; empty unless `outcome` is `Ok`.
    pub matches: Vec<RankedMatch>,
    /// Milliseconds from parsing the request to the start of its
    /// scoring: about 0, since a connection scores each request as soon
    /// as it has read it.
    pub queue_ms: u64,
    /// Milliseconds from the request's arrival (admission, for a
    /// connection's first request) to its response.
    pub latency_ms: u64,
}

impl QueryResponse {
    /// A response with `outcome` and optional detail, no matches.
    pub fn status(outcome: Outcome, error: Option<String>) -> QueryResponse {
        QueryResponse {
            outcome,
            error,
            query: None,
            matches: Vec::new(),
            queue_ms: 0,
            latency_ms: 0,
        }
    }
}

/// Builds the ranked-match list from engine scores — the single
/// construction path shared by `esh query --json` and the daemon, so the
/// two surfaces can never drift apart.
///
/// `exclude` drops one target (the query procedure itself when it is a
/// member of the served corpus, matching the offline CLI's self-filter);
/// `top_n` caps the list length. Only the `top_n + 1` best targets, all
/// the list can draw on, are selected and sorted
/// ([`QueryScores::top`]).
pub fn ranked_matches(
    scores: &QueryScores,
    exclude: Option<TargetId>,
    top_n: usize,
) -> Vec<RankedMatch> {
    scores
        .top(top_n.saturating_add(1))
        .iter()
        .filter(|s| Some(s.target) != exclude)
        .take(top_n)
        .enumerate()
        .map(|(i, s)| RankedMatch {
            rank: i as u64 + 1,
            name: s.name.clone(),
            ges: s.ges,
            s_log: s.s_log,
            s_vcp: s.s_vcp,
        })
        .collect()
}

/// Serializes `msg` as one newline-terminated JSON line.
pub fn encode_line<T: Serialize>(msg: &T) -> String {
    let mut line = serde_json::to_string(msg).expect("wire types serialize infallibly");
    line.push('\n');
    line
}

/// Parses one JSON line into `T`.
pub fn decode_line<T: Deserialize>(line: &str) -> Result<T, String> {
    serde_json::from_str(line.trim()).map_err(|e| format!("invalid JSON line: {e}"))
}

/// A persistent pipelined connection to the daemon.
///
/// [`PipelinedClient::send`] may be called any number of times before
/// the first [`PipelinedClient::recv`]; the daemon answers in request
/// order, so the `n`-th `recv` always pairs with the `n`-th `send`.
/// Keeping requests in flight on one socket saves a round trip per
/// request: the daemon reads the next line as soon as it has answered
/// the last.
pub struct PipelinedClient {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl PipelinedClient {
    /// Connects to the daemon; `timeout` bounds every future `recv`.
    pub fn connect(addr: &str, timeout: Duration) -> std::io::Result<PipelinedClient> {
        let stream = TcpStream::connect(addr)?;
        stream.set_read_timeout(Some(timeout))?;
        let writer = stream.try_clone()?;
        Ok(PipelinedClient {
            writer,
            reader: BufReader::new(stream),
        })
    }

    /// Writes one request line without waiting for its response.
    pub fn send(&mut self, request: &QueryRequest) -> std::io::Result<()> {
        self.writer.write_all(encode_line(request).as_bytes())?;
        self.writer.flush()
    }

    /// Reads the next in-order response line.
    pub fn recv(&mut self) -> std::io::Result<QueryResponse> {
        let mut line = String::new();
        let n = self.reader.read_line(&mut line)?;
        if n == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "daemon closed the connection",
            ));
        }
        decode_line(&line).map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))
    }

    /// [`PipelinedClient::send`] then [`PipelinedClient::recv`]: one
    /// round trip on the persistent connection.
    pub fn query(&mut self, request: &QueryRequest) -> std::io::Result<QueryResponse> {
        self.send(request)?;
        self.recv()
    }
}

/// Sends one request to a running daemon and waits for the response.
///
/// Opens a fresh connection, writes the request line, and blocks —
/// bounded by `timeout` — for the response line. The one-shot
/// convenience shape; use [`PipelinedClient`] to keep several requests
/// in flight on one socket.
pub fn remote_query(
    addr: &str,
    request: &QueryRequest,
    timeout: Duration,
) -> std::io::Result<QueryResponse> {
    let stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(timeout))?;
    let mut writer = stream.try_clone()?;
    writer.write_all(encode_line(request).as_bytes())?;
    writer.flush()?;
    let mut line = String::new();
    BufReader::new(stream).read_line(&mut line)?;
    decode_line(&line).map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))
}

/// Minimal HTTP/1.1 GET against the daemon's metrics shim. Returns the
/// status code and body.
pub fn http_get(addr: &str, path: &str, timeout: Duration) -> std::io::Result<(u16, String)> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(timeout))?;
    write!(
        stream,
        "GET {path} HTTP/1.1\r\nHost: esh\r\nConnection: close\r\n\r\n"
    )?;
    stream.flush()?;
    let mut raw = String::new();
    stream.read_to_string(&mut raw)?;
    let status: u16 = raw
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| {
            std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                "malformed HTTP status line",
            )
        })?;
    let body = raw
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    Ok((status, body))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_round_trips_with_optional_fields() {
        let full = QueryRequest {
            query: "openssl".into(),
            top_n: Some(5),
            deadline_ms: Some(250),
        };
        let back: QueryRequest = decode_line(&encode_line(&full)).unwrap();
        assert_eq!(back.query, "openssl");
        assert_eq!(back.top_n, Some(5));
        assert_eq!(back.deadline_ms, Some(250));

        // Absent Option fields deserialize as None — a bare query line is
        // a valid request.
        let bare: QueryRequest = decode_line(r#"{"query":"wget"}"#).unwrap();
        assert_eq!(bare.query, "wget");
        assert_eq!(bare.top_n, None);
        assert_eq!(bare.deadline_ms, None);
    }

    #[test]
    fn response_scores_round_trip_bit_exactly() {
        let resp = QueryResponse {
            outcome: Outcome::Ok,
            error: None,
            query: Some("q".into()),
            matches: vec![RankedMatch {
                rank: 1,
                name: "t".into(),
                ges: 0.1 + 0.2, // not representable exactly: the acid test
                s_log: -3.25e-17,
                s_vcp: 1.0 / 3.0,
            }],
            queue_ms: 2,
            latency_ms: 17,
        };
        let back: QueryResponse = decode_line(&encode_line(&resp)).unwrap();
        assert_eq!(back.outcome, Outcome::Ok);
        let (a, b) = (&resp.matches[0], &back.matches[0]);
        assert_eq!(a.ges.to_bits(), b.ges.to_bits());
        assert_eq!(a.s_log.to_bits(), b.s_log.to_bits());
        assert_eq!(a.s_vcp.to_bits(), b.s_vcp.to_bits());
    }

    /// xorshift64: a seeded, dependency-free byte source.
    struct XorShift(u64);

    impl XorShift {
        fn next(&mut self) -> u64 {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            self.0
        }

        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }
    }

    #[test]
    fn hostile_request_lines_decode_to_an_error_or_a_well_formed_request() {
        let valid = [
            encode_line(&QueryRequest::new("openssl")),
            encode_line(&QueryRequest {
                query: "ftp_syst [clang 3.5".into(),
                top_n: Some(u64::MAX),
                deadline_ms: Some(0),
            }),
            "{\"query\":\"\\u00e9\\ud83d\\ude00\",\"top_n\":null}\n".into(),
            "{\"deadline_ms\":1e3,\"query\":\"x\",\"extra\":[{}]}\n".into(),
            "{\"query\":\"@shutdown\"}\n".into(),
        ];
        // Bytes that steer random lines toward JSON structure, plus
        // lone continuation, overlong and surrogate-range UTF-8 bytes.
        let alphabet =
            b"{}[]\":,.-+eE0123456789 \\nulltruefalsequery\x80\xbf\xc0\xc3\xed\xa0\xf4\xff";
        let mut rng = XorShift(0x9e37_79b9_7f4a_7c15);
        let mut parsed = 0;
        for case in 0..12_000 {
            let base = valid[rng.below(valid.len())].as_bytes();
            let mut raw: Vec<u8> = match case % 4 {
                0 => (0..rng.below(96))
                    .map(|_| alphabet[rng.below(alphabet.len())])
                    .collect(),
                1 => base[..rng.below(base.len() + 1)].to_vec(),
                2 => {
                    let mut b = base.to_vec();
                    for _ in 0..1 + rng.below(4) {
                        let at = rng.below(b.len());
                        b[at] ^= 1 << rng.below(8);
                    }
                    b
                }
                _ => {
                    let mut b = base.to_vec();
                    let at = rng.below(b.len() + 1);
                    let junk = (0..1 + rng.below(4)).map(|_| 0x80 | rng.next() as u8);
                    b.splice(at..at, junk);
                    b
                }
            };
            raw.push(b'\n');
            // The daemon's reader splits on newlines and decodes each line
            // exactly like this.
            for piece in raw.split(|&b| b == b'\n') {
                let line = String::from_utf8_lossy(piece).trim().to_string();
                if let Ok(req) = decode_line::<QueryRequest>(&line) {
                    let back: QueryRequest = decode_line(&encode_line(&req)).unwrap();
                    assert_eq!(
                        (back.query, back.top_n, back.deadline_ms),
                        (req.query, req.top_n, req.deadline_ms),
                        "{line:?}"
                    );
                    parsed += 1;
                }
            }
        }
        // The mutations keep some lines valid, so both arms ran.
        assert!(parsed > 0);
    }

    #[test]
    fn outcomes_serialize_as_plain_strings() {
        let line = encode_line(&Outcome::Overloaded);
        assert_eq!(line.trim(), "\"Overloaded\"");
        let back: Outcome = decode_line(&line).unwrap();
        assert_eq!(back, Outcome::Overloaded);
    }
}
