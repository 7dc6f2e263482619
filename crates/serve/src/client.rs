//! The blocking client for the serve protocol, used by `srra query`, the
//! cluster router, the integration tests and the serving benchmarks.
//!
//! [`Connection`] keeps one `TcpStream` (with `TCP_NODELAY`) alive across any
//! number of requests, encodes each request (a `\n`-terminated JSON line or
//! one binary frame) into a reused buffer and sends it with a single
//! `write_all`, and supports *pipelining* — write N requests back-to-back,
//! then read the N replies in order.  Connection-per-request callers simply
//! open a fresh `Connection` per call.
//!
//! A keep-alive socket can go stale while idle — the server restarted, or a
//! middlebox dropped the connection — surfacing as broken-pipe / ECONNRESET
//! on the next write or an immediate EOF on the next read.  The single
//! request/response methods transparently reconnect and retry **once** in
//! that case (safe: a stale failure means no reply byte arrived, and every
//! protocol op except `shutdown` is idempotent — `shutdown` alone is never
//! retried, since a replay could stop a server restarted between the
//! attempts); [`Connection::pipeline`] retries only when the failure
//! precedes its first reply byte and the window carries no `shutdown`, so
//! replies are never replayed or lost.

use std::io::{BufRead, BufReader, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

use srra_explore::codec::WireError;
use srra_explore::PointRecord;
use srra_obs::{Counter, MetricsSnapshot, Registry, SeriesSample, SnapshotDelta, Span};

use crate::binary::{decode_payload, encode_request_frame, read_frame, FrameError};
use crate::protocol::{
    check_trace, stamp_trace, Op, PointOutcome, QueryPoint, Request, Response, ServerStats,
    ShardDigest,
};

/// Lifts a codec failure into the client error space.
fn wire_err(err: WireError) -> ClientError {
    match err {
        WireError::Io(err) => ClientError::Io(err),
        WireError::Corrupt(message) => ClientError::Protocol(message),
    }
}

/// Handles into [`Registry::global`] for the client-side instruments,
/// resolved once — recording on the reconnect paths is handle-direct.
struct ConnectionMetrics {
    connects: Arc<Counter>,
    reconnect_retries: Arc<Counter>,
}

fn connection_metrics() -> &'static ConnectionMetrics {
    static METRICS: OnceLock<ConnectionMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let registry = Registry::global();
        ConnectionMetrics {
            connects: registry.counter("client_connects_total"),
            reconnect_retries: registry.counter("client_reconnect_retries_total"),
        }
    })
}

/// Errors of the query client.
#[derive(Debug)]
pub enum ClientError {
    /// Socket-level failure.
    Io(std::io::Error),
    /// The response line could not be decoded.
    Protocol(String),
    /// The server answered with an error response.
    Server(String),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(err) => write!(f, "query I/O error: {err}"),
            ClientError::Protocol(message) => write!(f, "malformed server response: {message}"),
            ClientError::Server(message) => write!(f, "server error: {message}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<std::io::Error> for ClientError {
    fn from(err: std::io::Error) -> Self {
        ClientError::Io(err)
    }
}

/// The records and cache statistics of one `explore` request.
#[derive(Debug, Clone, PartialEq)]
pub struct ExploreReply {
    /// One record per requested point, in request order.
    pub records: Vec<PointRecord>,
    /// Points answered from the shards.
    pub hits: u64,
    /// Points evaluated on demand.
    pub evaluated: u64,
}

/// The per-point outcomes and cache statistics of one `mexplore` request.
#[derive(Debug, Clone, PartialEq)]
pub struct MultiExploreReply {
    /// One outcome per requested point, in request order.
    pub outcomes: Vec<PointOutcome>,
    /// Points answered from the shards.
    pub hits: u64,
    /// Points evaluated on demand.
    pub evaluated: u64,
}

/// A persistent keep-alive connection to one server.
///
/// One `TcpStream` carries any number of request/response pairs; the server
/// answers in strict request order.  All methods take `&mut self` — a
/// connection is a sequential conversation, callers wanting parallelism open
/// several connections.
#[derive(Debug)]
pub struct Connection {
    /// The `host:port` this connection targets, kept for transparent
    /// reconnects after the socket goes stale.
    addr: String,
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    /// Whether this connection speaks the binary frame codec instead of
    /// JSON lines (chosen at connect time; the server negotiates per frame).
    binary: bool,
    /// Outgoing request lines (JSON codec).
    scratch: String,
    /// Scratch buffer for incoming response lines.
    line: String,
    /// Outgoing request frames (binary codec).
    frame: Vec<u8>,
    /// Scratch buffer for incoming binary frame payloads.
    payload: Vec<u8>,
    /// Trace id stamped onto every outgoing request, when set.
    trace: Option<String>,
    /// Trace id echoed on the most recently received reply, if any.
    last_trace: Option<String>,
    /// I/O deadline applied to connects, reads and writes; `None` blocks
    /// indefinitely.
    timeout: Option<Duration>,
}

/// Whether `err` says the keep-alive socket went stale while idle (server
/// restart, middlebox drop) — the failures a reconnect-and-retry can heal.
fn is_stale(err: &ClientError) -> bool {
    matches!(err, ClientError::Io(io) if matches!(
        io.kind(),
        std::io::ErrorKind::BrokenPipe
            | std::io::ErrorKind::ConnectionReset
            | std::io::ErrorKind::ConnectionAborted
            | std::io::ErrorKind::UnexpectedEof
            | std::io::ErrorKind::NotConnected
    ))
}

/// Opens the `TCP_NODELAY` stream pair for `addr`.  With a `timeout`, the
/// connect and every subsequent read and write carry that deadline — a hung,
/// partitioned or stalled server surfaces as a `TimedOut`/`WouldBlock` I/O
/// error instead of blocking the caller forever.
fn open_stream(
    addr: &str,
    timeout: Option<Duration>,
) -> Result<(BufReader<TcpStream>, TcpStream), ClientError> {
    let mut addrs = addr.to_socket_addrs()?;
    let addr = addrs
        .next()
        .ok_or_else(|| ClientError::Protocol(format!("unresolvable address `{addr}`")))?;
    let stream = match timeout {
        None => TcpStream::connect(addr)?,
        Some(deadline) => TcpStream::connect_timeout(&addr, deadline)?,
    };
    stream.set_read_timeout(timeout)?;
    stream.set_write_timeout(timeout)?;
    stream.set_nodelay(true)?;
    let writer = stream.try_clone()?;
    connection_metrics().connects.inc();
    Ok((BufReader::new(stream), writer))
}

/// The error for a reply that does not answer `op`: a server error reply
/// becomes [`ClientError::Server`], any other shape
/// [`ClientError::Protocol`].
fn unexpected(op: Op, response: Response) -> ClientError {
    match response {
        Response::Error { message } => ClientError::Server(message),
        other => ClientError::Protocol(format!("unexpected response to {}: {other:?}", op.name())),
    }
}

impl Connection {
    /// Connects to the server at `addr` (`host:port`) speaking JSON lines,
    /// with no I/O deadline.
    ///
    /// # Errors
    ///
    /// Connection failures and unresolvable addresses.
    pub fn connect(addr: &str) -> Result<Self, ClientError> {
        Self::connect_with_codec(addr, false, None)
    }

    /// Connects to the server at `addr` speaking the length-prefixed binary
    /// codec (`docs/serving.md`), with no I/O deadline — same protocol, same
    /// server port, no text parse on either side's hot path.
    ///
    /// # Errors
    ///
    /// Connection failures and unresolvable addresses.
    pub fn connect_binary(addr: &str) -> Result<Self, ClientError> {
        Self::connect_with_codec(addr, true, None)
    }

    /// Connects to the server at `addr` speaking the binary codec when
    /// `binary` is set and JSON lines otherwise, and disables Nagle's
    /// algorithm so single requests leave immediately.  With a `timeout`,
    /// the connect, every read and every write time out after it, so a hung
    /// or partitioned server costs at most the deadline instead of blocking
    /// forever; `None` disables the deadline.
    ///
    /// # Errors
    ///
    /// Connection failures (including a connect timeout) and unresolvable
    /// addresses.
    pub fn connect_with_codec(
        addr: &str,
        binary: bool,
        timeout: Option<Duration>,
    ) -> Result<Self, ClientError> {
        let (reader, writer) = open_stream(addr, timeout)?;
        Ok(Self {
            addr: addr.to_owned(),
            reader,
            writer,
            binary,
            scratch: String::with_capacity(256),
            line: String::with_capacity(256),
            frame: Vec::with_capacity(256),
            payload: Vec::with_capacity(256),
            trace: None,
            last_trace: None,
            timeout,
        })
    }

    /// Whether this connection speaks the binary frame codec.
    pub fn is_binary(&self) -> bool {
        self.binary
    }

    /// Sets (or clears, with `None`) the trace id stamped onto every
    /// outgoing request from now on.  The server echoes the id on each
    /// reply — readable afterwards via [`last_trace`](Connection::last_trace)
    /// — and attributes its slow-query log lines to it.
    ///
    /// # Errors
    ///
    /// Rejects ids that are empty, longer than
    /// [`TRACE_MAX_LEN`](crate::protocol::TRACE_MAX_LEN) bytes, or contain
    /// characters outside `[A-Za-z0-9._-]`.
    pub fn set_trace(&mut self, trace: Option<&str>) -> Result<(), ClientError> {
        if let Some(id) = trace {
            check_trace(id).map_err(ClientError::Protocol)?;
        }
        self.trace = trace.map(str::to_owned);
        Ok(())
    }

    /// The trace id the server echoed on the most recent reply, if any.
    pub fn last_trace(&self) -> Option<&str> {
        self.last_trace.as_deref()
    }

    /// Replaces the stale socket with a fresh one to the same address.  The
    /// outgoing buffers survive, so a failed window can be replayed
    /// byte-identically.
    fn reconnect(&mut self) -> Result<(), ClientError> {
        let (reader, writer) = open_stream(&self.addr, self.timeout)?;
        self.reader = reader;
        self.writer = writer;
        Ok(())
    }

    /// Appends `request` to the outgoing buffer in this connection's codec:
    /// a binary frame carrying the trace id, or a JSON line with the trace
    /// id stamped on and its `\n` terminator.
    fn append_request(&mut self, request: &Request) -> Result<(), ClientError> {
        if self.binary {
            return encode_request_frame(&mut self.frame, self.trace.as_deref(), request)
                .map_err(wire_err);
        }
        request.render_into(&mut self.scratch);
        if let Some(trace) = &self.trace {
            stamp_trace(&mut self.scratch, trace);
        }
        self.scratch.push('\n');
        Ok(())
    }

    /// Reads and decodes the next reply (a line or a binary frame, matching
    /// this connection's codec), recording the trace id it echoes.
    fn receive(&mut self) -> Result<Response, ClientError> {
        if self.binary {
            match read_frame(&mut self.reader, &mut self.payload) {
                Ok(()) => {}
                Err(FrameError::Io(err)) => return Err(ClientError::Io(err)),
                Err(err) => return Err(ClientError::Protocol(err.to_string())),
            }
            let (response, trace) = decode_payload::<Response>(&self.payload).map_err(wire_err)?;
            self.last_trace = trace;
            return Ok(response);
        }
        self.line.clear();
        self.reader.read_line(&mut self.line)?;
        if self.line.is_empty() {
            return Err(ClientError::Io(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "server closed the connection without answering",
            )));
        }
        let (response, trace) =
            Response::parse_with_trace(self.line.trim_end()).map_err(ClientError::Protocol)?;
        self.last_trace = trace;
        Ok(response)
    }

    /// Sends one request and reads its response, transparently reconnecting
    /// and retrying once if the idle socket had gone stale (broken pipe /
    /// connection reset / immediate EOF).  `shutdown` is the one
    /// non-idempotent op, so it is never retried — reconnect-and-replay
    /// could stop a server that was restarted between the two attempts.
    ///
    /// # Errors
    ///
    /// Socket-level failures and malformed responses.  A
    /// [`Response::Error`] reply is returned as `Ok`.
    pub fn roundtrip(&mut self, request: &Request) -> Result<Response, ClientError> {
        let mut responses = self.pipeline(std::slice::from_ref(request))?;
        Ok(responses
            .pop()
            .expect("pipeline reads one reply per request"))
    }

    /// Pipelines a batch: encodes *all* requests into one buffer, sends
    /// them with a single `write_all`, then reads the replies in order.
    ///
    /// The caller bounds the batch: both peers' socket buffers must absorb
    /// the whole request window plus the replies produced while the client
    /// is still writing, so keep batches to at most a few hundred requests
    /// (the in-tree callers use 48–256) and loop for larger workloads.
    ///
    /// A stale socket detected on the write or **before the first reply
    /// byte** reconnects and replays the whole window once; once any reply
    /// has been consumed the batch fails as-is (replaying would re-execute
    /// requests whose replies are gone).  A window containing the one
    /// non-idempotent op, `shutdown`, is never replayed — the replay could
    /// stop a server that was restarted between the attempts.
    ///
    /// # Errors
    ///
    /// Socket-level failures and malformed responses.  An [`Response::Error`]
    /// reply is returned in place, not promoted to an `Err` — pipelined
    /// batches are position-addressed.
    pub fn pipeline(&mut self, requests: &[Request]) -> Result<Vec<Response>, ClientError> {
        self.scratch.clear();
        self.frame.clear();
        for request in requests {
            self.append_request(request)?;
        }
        let replayable = !requests
            .iter()
            .any(|request| matches!(request, Request::Shutdown));
        match self.try_pipeline(requests.len()) {
            Err((_, true)) if replayable => {
                connection_metrics().reconnect_retries.inc();
                self.reconnect()?;
                self.try_pipeline(requests.len()).map_err(|(err, _)| err)
            }
            other => other.map_err(|(err, _)| err),
        }
    }

    /// One attempt of [`pipeline`](Connection::pipeline): writes the whole
    /// encoded window, then reads `count` replies.  The error's boolean says
    /// whether a retry is safe: `true` only while no reply byte has been
    /// consumed.
    fn try_pipeline(&mut self, count: usize) -> Result<Vec<Response>, (ClientError, bool)> {
        let window = if self.binary {
            &self.frame[..]
        } else {
            self.scratch.as_bytes()
        };
        if let Err(err) = self.writer.write_all(window) {
            let err = ClientError::Io(err);
            let retryable = is_stale(&err);
            return Err((err, retryable));
        }
        let mut responses = Vec::with_capacity(count);
        for index in 0..count {
            match self.receive() {
                Ok(response) => responses.push(response),
                Err(err) => {
                    let retryable = index == 0 && is_stale(&err);
                    return Err((err, retryable));
                }
            }
        }
        Ok(responses)
    }

    /// Looks a record up by canonical string; `None` is a miss.
    ///
    /// # Errors
    ///
    /// Connection failures, malformed responses and server-side errors.
    pub fn get(&mut self, canonical: &str) -> Result<Option<PointRecord>, ClientError> {
        let request = Request::Get {
            canonical: canonical.to_owned(),
        };
        match self.roundtrip(&request)? {
            Response::Found { record } => Ok(Some(record)),
            Response::NotFound => Ok(None),
            other => Err(unexpected(Op::Get, other)),
        }
    }

    /// Looks a batch of canonical strings up in one request/reply pair.
    ///
    /// # Errors
    ///
    /// Connection failures, malformed responses and server-side errors.
    pub fn mget(&mut self, canonicals: &[String]) -> Result<Vec<Option<PointRecord>>, ClientError> {
        let request = Request::MultiGet {
            canonicals: canonicals.to_vec(),
        };
        match self.roundtrip(&request)? {
            Response::MultiGot { records } => Ok(records),
            other => Err(unexpected(Op::MultiGet, other)),
        }
    }

    /// Answers a batch of design points (hits from the shards, misses
    /// evaluated server-side).
    ///
    /// # Errors
    ///
    /// Connection failures, malformed responses and server-side errors.
    pub fn explore(&mut self, points: &[QueryPoint]) -> Result<ExploreReply, ClientError> {
        let request = Request::Explore {
            points: points.to_vec(),
        };
        match self.roundtrip(&request)? {
            Response::Explored {
                records,
                hits,
                evaluated,
            } => Ok(ExploreReply {
                records,
                hits,
                evaluated,
            }),
            other => Err(unexpected(Op::Explore, other)),
        }
    }

    /// Answers a batch of design points with per-point outcomes: a point that
    /// fails to resolve reports its error in place instead of failing the
    /// batch.
    ///
    /// # Errors
    ///
    /// Connection failures, malformed responses and server-side errors.
    pub fn mexplore(&mut self, points: &[QueryPoint]) -> Result<MultiExploreReply, ClientError> {
        let request = Request::MultiExplore {
            points: points.to_vec(),
        };
        match self.roundtrip(&request)? {
            Response::MultiExplored {
                outcomes,
                hits,
                evaluated,
            } => Ok(MultiExploreReply {
                outcomes,
                hits,
                evaluated,
            }),
            other => Err(unexpected(Op::MultiExplore, other)),
        }
    }

    /// Stores pre-evaluated records verbatim (the cluster replication tee);
    /// returns how many were new to the server's shards.
    ///
    /// # Errors
    ///
    /// Connection failures, malformed responses and server-side errors.
    pub fn put(&mut self, records: &[PointRecord]) -> Result<u64, ClientError> {
        let request = Request::Put {
            records: records.to_vec(),
        };
        match self.roundtrip(&request)? {
            Response::Stored { stored } => Ok(stored),
            other => Err(unexpected(Op::Put, other)),
        }
    }

    /// Trivial health probe: round-trips a `ping`.
    ///
    /// # Errors
    ///
    /// Connection failures, malformed responses and server-side errors.
    pub fn ping(&mut self) -> Result<(), ClientError> {
        match self.roundtrip(&Request::Ping)? {
            Response::Pong => Ok(()),
            other => Err(unexpected(Op::Ping, other)),
        }
    }

    /// Fetches the server statistics.
    ///
    /// # Errors
    ///
    /// Connection failures, malformed responses and server-side errors.
    pub fn stats(&mut self) -> Result<ServerStats, ClientError> {
        match self.roundtrip(&Request::Stats)? {
            Response::Stats(stats) => Ok(stats),
            other => Err(unexpected(Op::Stats, other)),
        }
    }

    /// Fetches the server's full telemetry snapshot (counters, gauges and
    /// latency histograms) as structured data.
    ///
    /// # Errors
    ///
    /// Connection failures, malformed responses and server-side errors.
    pub fn metrics(&mut self) -> Result<MetricsSnapshot, ClientError> {
        match self.roundtrip(&Request::Metrics { prometheus: false })? {
            Response::Metrics(snapshot) => Ok(snapshot),
            other => Err(unexpected(Op::Metrics, other)),
        }
    }

    /// Fetches the server's telemetry in the Prometheus text exposition
    /// format, ready to serve to a scraper.
    ///
    /// # Errors
    ///
    /// Connection failures, malformed responses and server-side errors.
    pub fn metrics_text(&mut self) -> Result<String, ClientError> {
        match self.roundtrip(&Request::Metrics { prometheus: true })? {
            Response::MetricsText { text } => Ok(text),
            other => Err(unexpected(Op::Metrics, other)),
        }
    }

    /// Fetches the spans the server's flight recorder retains for `id` —
    /// the read side of request tracing.  An unknown (or already evicted)
    /// trace id yields an empty list, not an error.
    ///
    /// # Errors
    ///
    /// Connection failures, malformed responses and server-side errors.
    pub fn trace_spans(&mut self, id: &str) -> Result<Vec<Span>, ClientError> {
        match self.roundtrip(&Request::Trace { id: id.to_owned() })? {
            Response::Traced { spans } => Ok(spans),
            other => Err(unexpected(Op::Trace, other)),
        }
    }

    /// Fetches the newest `last` samples of the server's metrics series ring
    /// (oldest first).  An idle sampler yields an empty list, not an error.
    ///
    /// # Errors
    ///
    /// Connection failures, malformed responses and server-side errors.
    pub fn series_samples(&mut self, last: u64) -> Result<Vec<SeriesSample>, ClientError> {
        match self.roundtrip(&Request::Series { last, window_us: 0 })? {
            Response::Series { samples } => Ok(samples),
            other => Err(unexpected(Op::Series, other)),
        }
    }

    /// Fetches the metrics delta across the server's trailing `window_us`
    /// window — per-window counter increments, gauge last values and
    /// histogram bucket differences, ready for rate/quantile math.
    ///
    /// # Errors
    ///
    /// Connection failures, malformed responses and server-side errors
    /// (including too few samples in the window, e.g. a disabled sampler).
    pub fn series_delta(&mut self, window_us: u64) -> Result<SnapshotDelta, ClientError> {
        match self.roundtrip(&Request::Series { last: 0, window_us })? {
            Response::SeriesDelta { delta } => Ok(delta),
            other => Err(unexpected(Op::Series, other)),
        }
    }

    /// Fetches the server's per-shard anti-entropy digests, in shard order.
    /// Two nodes holding the same record set answer identical digests (see
    /// `docs/cluster.md`).
    ///
    /// # Errors
    ///
    /// Connection failures, malformed responses and server-side errors.
    pub fn digest(&mut self) -> Result<Vec<ShardDigest>, ClientError> {
        match self.roundtrip(&Request::Digest)? {
            Response::Digests { digests } => Ok(digests),
            other => Err(unexpected(Op::Digest, other)),
        }
    }

    /// Fetches one page of shard `shard`'s canonical strings (`offset` /
    /// `limit` paging); the boolean is `true` when the page reached the end
    /// of the shard.
    ///
    /// # Errors
    ///
    /// Connection failures, malformed responses and server-side errors
    /// (including an out-of-range shard index).
    pub fn scan(
        &mut self,
        shard: u64,
        offset: u64,
        limit: u64,
    ) -> Result<(Vec<String>, bool), ClientError> {
        let request = Request::Scan {
            shard,
            offset,
            limit,
        };
        match self.roundtrip(&request)? {
            Response::Scanned { canonicals, done } => Ok((canonicals, done)),
            other => Err(unexpected(Op::Scan, other)),
        }
    }

    /// Asks the server to shut down gracefully.  Never retried on a stale
    /// socket ([`roundtrip`](Connection::roundtrip) exempts `shutdown` from
    /// the reconnect-and-replay): a replay could stop a server that was
    /// restarted between the two attempts.
    ///
    /// # Errors
    ///
    /// Connection failures, malformed responses and server-side errors.
    pub fn shutdown(&mut self) -> Result<(), ClientError> {
        match self.roundtrip(&Request::Shutdown)? {
            Response::ShuttingDown => Ok(()),
            other => Err(unexpected(Op::Shutdown, other)),
        }
    }
}
