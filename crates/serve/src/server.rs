//! The thread-pool TCP server: accepts queries as JSON lines or binary
//! frames and answers them from the sharded store, evaluating misses on
//! demand.
//!
//! Built entirely on `std::net` + scoped threads (the build environment is
//! offline, so no async runtime).  Architecture:
//!
//! * the accept loop hands sockets to a fixed pool of worker threads over an
//!   `mpsc` channel (receiver shared behind a mutex);
//! * every worker answers requests against one shared [`ShardedStore`] —
//!   shard-level read/write locks let any number of warm lookups proceed in
//!   parallel (even on the same shard) while appends briefly exclude their
//!   own shard only;
//! * request handling is a function of bytes: `ServerState::serve_request`
//!   reads one request of either codec off any `BufRead` through the
//!   crate's one reader, answers and accounts it, renders the reply into a
//!   buffer through the one writer, and says whether to go on, close or
//!   shut down — so tests need no socket.  The client reads and writes
//!   through the same pair, so it too stops a reply at `MAX_FRAME_LEN`;
//! * the socket loop around it keeps only the stream: one `write_all` per
//!   reply, a flush only before the next socket read — so a client that
//!   writes N requests before reading gets its N replies in large batches
//!   instead of N round-trips — idle reaping and the start of a shutdown;
//! * an in-flight table (mutex + condvar) guarantees each cache miss is
//!   evaluated *exactly once* even when many clients request the same point
//!   concurrently: the first claimant evaluates, everyone else blocks until
//!   the record lands in the store and then reads it back;
//! * a request that stores records (`explore`, `mexplore`, `put`) leaves
//!   them in the shards' write buffers and flushes the store once before
//!   its reply is rendered, so each dirty shard costs the request one write;
//! * `shutdown` flips an atomic flag and pokes the listener with a loopback
//!   connection so the blocking `accept` wakes up; in-flight requests are
//!   answered, then the read halves of all open sockets are shut down so
//!   workers blocked on idle keep-alive connections wake with EOF — draining
//!   never waits for clients (the cluster router keeps connections open
//!   indefinitely) to hang up first.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, BufWriter, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex, OnceLock};
use std::time::{Duration, Instant};

use srra_core::{AllocatorRegistry, CompiledKernel};
use srra_explore::{
    fnv1a_64, BatchEvaluator, DesignPoint, PointRecord, StageTimings, MAX_RAM_LATENCY,
};
use srra_fpga::DeviceModel;
use srra_ir::examples::paper_example;
use srra_kernels::paper_suite;
use srra_obs::{
    epoch_us, next_span_id, Counter, Gauge, Histogram, Registry, SeriesBuffer, SloEvaluator,
    SloRule, Span,
};

use crate::binary::{decode, read_message, write_messages, Codec, MAX_FRAME_LEN};
use crate::protocol::{Op, OpStats, PointOutcome, QueryPoint, Request, Response, ServerStats};
use crate::shard::{ShardError, ShardedStore};

/// Errors starting or running a [`Server`].
#[derive(Debug)]
pub enum ServeError {
    /// Socket-level failure.
    Io(std::io::Error),
    /// Sharded-store failure.
    Shard(ShardError),
    /// Invalid configuration (for example a malformed `--slo` rule).
    Config(String),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Io(err) => write!(f, "serve I/O error: {err}"),
            ServeError::Shard(err) => write!(f, "serve store error: {err}"),
            ServeError::Config(message) => write!(f, "serve config error: {message}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<std::io::Error> for ServeError {
    fn from(err: std::io::Error) -> Self {
        ServeError::Io(err)
    }
}

impl From<ShardError> for ServeError {
    fn from(err: ShardError) -> Self {
        ServeError::Shard(err)
    }
}

/// Configuration of a [`Server`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Address to bind (`127.0.0.1:0` picks an ephemeral port).
    pub addr: String,
    /// Cache directory holding the shard files.
    pub cache_dir: PathBuf,
    /// Number of shards.
    pub shards: usize,
    /// Worker threads serving connections.
    pub workers: usize,
    /// Threshold of the slow-query log in microseconds; 0 disables it.  A
    /// request (or a single on-demand evaluation) at or over the threshold
    /// logs one stderr line carrying its op, shard and trace id, so a slow
    /// `mexplore` is attributable without a debugger attached.
    pub slow_query_us: u64,
    /// Idle-connection deadline in seconds; 0 (the default) disables it.
    /// A client that connects and then stays silent for this long is reaped
    /// (counted by `serve_idle_reaped_total`) instead of pinning a worker
    /// thread forever.
    pub idle_timeout_secs: u64,
    /// Interval of the opt-in metrics sampler in milliseconds; 0 (the
    /// default) runs no sampler.  The sampler pushes one timestamped merged
    /// snapshot per interval into the series ring the `series` op answers
    /// from, and evaluates the configured SLO rules against that ring.
    pub sample_interval_ms: u64,
    /// SLO rules to evaluate every sampler tick, in the
    /// [`SloRule`] grammar (e.g. `serve_op_get_latency_us p99 < 500us over
    /// 60s`).  Ignored while the sampler is off.
    pub slos: Vec<String>,
}

impl ServerConfig {
    /// A loopback/ephemeral-port configuration over `cache_dir` with 4 shards
    /// and 4 workers (no slow-query log, no sampler).
    pub fn ephemeral(cache_dir: impl Into<PathBuf>) -> Self {
        Self {
            addr: "127.0.0.1:0".to_owned(),
            cache_dir: cache_dir.into(),
            shards: 4,
            workers: 4,
            slow_query_us: 0,
            idle_timeout_secs: 0,
            sample_interval_ms: 0,
            slos: Vec::new(),
        }
    }
}

/// The in-flight table: keys currently being evaluated by some worker, each
/// carrying the claimant request's trace id (when it had one) so waiters can
/// attribute their stall, and how many requests are blocked waiting on a
/// claim, so a release wakes the condvar only when someone waits.
#[derive(Debug, Default)]
struct Inflight {
    table: Mutex<InflightTable>,
    done: Condvar,
}

/// What the in-flight lock guards.
#[derive(Debug, Default)]
struct InflightTable {
    claims: HashMap<u64, Option<String>>,
    /// Requests blocked in [`Inflight::wait_released`].
    waiters: usize,
}

/// A claim on one key of the in-flight table.  Dropping it releases the key,
/// also when the evaluation under it unwinds, so no request waits on a claim
/// nobody holds.
struct Claim<'a> {
    inflight: &'a Inflight,
    key: u64,
}

impl Drop for Claim<'_> {
    fn drop(&mut self) {
        self.inflight.release(self.key);
    }
}

impl Inflight {
    fn table(&self) -> std::sync::MutexGuard<'_, InflightTable> {
        self.table
            .lock()
            .expect("no worker panics while holding the in-flight lock")
    }

    /// Claims `key` for evaluation on behalf of `trace`; `None` means
    /// another worker holds it.
    fn claim(&self, key: u64, trace: Option<&str>) -> Option<Claim<'_>> {
        match self.table().claims.entry(key) {
            std::collections::hash_map::Entry::Occupied(_) => None,
            std::collections::hash_map::Entry::Vacant(slot) => {
                slot.insert(trace.map(str::to_owned));
                Some(Claim {
                    inflight: self,
                    key,
                })
            }
        }
    }

    /// Releases `key` and wakes every waiter, if any request waits.  A
    /// waiter counts itself under the table's lock before it sleeps, so a
    /// release that reads no waiter cannot miss one.
    fn release(&self, key: u64) {
        let mut table = self.table();
        table.claims.remove(&key);
        let waiting = table.waiters > 0;
        drop(table);
        if waiting {
            self.done.notify_all();
        }
    }

    /// Blocks until `key` is not claimed (returns immediately if it already
    /// is not), returning the trace id of the claimant that was waited on,
    /// if it had one.
    fn wait_released(&self, key: u64) -> Option<String> {
        let mut table = self.table();
        let mut claimant = None;
        while let Some(trace) = table.claims.get(&key) {
            if claimant.is_none() {
                claimant.clone_from(trace);
            }
            table.waiters += 1;
            table = self
                .done
                .wait(table)
                .expect("no worker panics while holding the in-flight lock");
            table.waiters -= 1;
        }
        claimant
    }
}

/// Count + latency histogram of one op (handles into the server registry).
#[derive(Debug)]
struct OpCounter {
    count: Arc<Counter>,
    latency: Arc<Histogram>,
}

/// The server's instruments: handles into its per-server [`Registry`], so
/// every count below is also scrapeable through the `metrics` op under the
/// `serve_` prefix.  Recording is handle-direct (no name lookup, no lock) —
/// the same discipline the private atomics had before they moved here.
#[derive(Debug)]
struct Counters {
    connections: Arc<Counter>,
    requests: Arc<Counter>,
    hits: Arc<Counter>,
    misses: Arc<Counter>,
    evaluated: Arc<Counter>,
    /// Requests carrying a `trace` id.
    traced_requests: Arc<Counter>,
    /// Requests (or single evaluations) at or over the slow-query threshold.
    slow_queries: Arc<Counter>,
    /// Misses that claimed the in-flight table and evaluated themselves.
    inflight_claims: Arc<Counter>,
    /// Misses that blocked on another worker's in-flight evaluation.
    inflight_waits: Arc<Counter>,
    /// Slow traces pinned into the flight recorder's retained set.
    pinned_traces: Arc<Counter>,
    /// Currently open client connections.
    open_connections: Arc<Gauge>,
    /// Request-line decode time (codec parse, per request).
    codec_parse_us: Arc<Histogram>,
    /// Response-line encode time (codec render, per request).
    codec_render_us: Arc<Histogram>,
    /// Requests per codec they arrived in, indexed by `Codec as usize`.
    codecs: [Arc<Counter>; 2],
    /// Idle keep-alive connections reaped by the idle-connection deadline.
    idle_reaped: Arc<Counter>,
    /// Per-op accounting, indexed by `Op as usize`.
    ops: [OpCounter; Op::TABLE.len()],
}

impl Counters {
    /// Registers every instrument in `registry`.
    fn register(registry: &Registry) -> Self {
        Self {
            connections: registry.counter("serve_connections_total"),
            requests: registry.counter("serve_requests_total"),
            hits: registry.counter("serve_hits_total"),
            misses: registry.counter("serve_misses_total"),
            evaluated: registry.counter("serve_evaluated_total"),
            traced_requests: registry.counter("serve_traced_requests_total"),
            slow_queries: registry.counter("serve_slow_queries_total"),
            inflight_claims: registry.counter("serve_inflight_claims_total"),
            inflight_waits: registry.counter("serve_inflight_waits_total"),
            pinned_traces: registry.counter("serve_pinned_traces_total"),
            open_connections: registry.gauge("serve_open_connections"),
            codec_parse_us: registry.histogram("serve_codec_parse_us"),
            codec_render_us: registry.histogram("serve_codec_render_us"),
            codecs: [Codec::Json, Codec::Binary]
                .map(|codec| registry.counter(&format!("serve_codec_{}_total", codec.name()))),
            idle_reaped: registry.counter("serve_idle_reaped_total"),
            ops: Op::TABLE.map(|(_, name, _)| OpCounter {
                count: registry.counter(&format!("serve_op_{name}_total")),
                latency: registry.histogram(&format!("serve_op_{name}_latency_us")),
            }),
        }
    }

    /// Records one handled request of `op` that took `elapsed` to serve.  A
    /// traced request also stamps its trace id as the latency bucket's
    /// exemplar, so a histogram outlier links straight to a fetchable trace.
    fn record_op(&self, op: Op, elapsed: Duration, trace: Option<&str>) {
        let counter = &self.ops[op as usize];
        counter.count.inc();
        match trace {
            Some(id) => counter.latency.record_traced(elapsed, id),
            None => counter.latency.record(elapsed),
        }
    }

    /// The per-op stats in fixed reporting order.
    fn op_stats(&self) -> Vec<OpStats> {
        Op::TABLE
            .iter()
            .zip(&self.ops)
            .map(|((_, name, _), counter)| OpStats {
                op: (*name).to_owned(),
                count: counter.count.get(),
                p50_us: counter.latency.quantile(0.50),
                p99_us: counter.latency.quantile(0.99),
            })
            .collect()
    }
}

/// Span accumulator of one traced request, allocated only when the request
/// carried a trace id — untraced requests never construct one, so the hot
/// path stays allocation-free.
///
/// Children accumulate as stages complete; [`finish`](Self::finish) appends
/// the root span last (its duration is the whole request) and hands the tree
/// to the flight recorder.
struct SpanCollector {
    trace_id: String,
    root_id: u64,
    spans: Vec<Span>,
}

impl SpanCollector {
    fn new(trace_id: &str) -> Self {
        Self {
            trace_id: trace_id.to_owned(),
            root_id: next_span_id(),
            spans: Vec::new(),
        }
    }

    /// Records one completed child stage under the request's root span,
    /// returning it for annotation.
    fn child(&mut self, name: &str, started: Instant, dur: Duration) -> &mut Span {
        let mut span = Span::new(&self.trace_id, self.root_id, name);
        span.start_us = epoch_us(started);
        span.dur_us = dur.as_micros().min(u128::from(u64::MAX)) as u64;
        self.spans.push(span);
        self.spans.last_mut().expect("just pushed")
    }

    /// The top-`count` child stages by duration, as a `name:Nus,...` list for
    /// the slow-query log line.
    fn slow_note(&self, count: usize) -> String {
        let mut tops: Vec<&Span> = self.spans.iter().collect();
        tops.sort_by(|a, b| b.dur_us.cmp(&a.dur_us).then(a.start_us.cmp(&b.start_us)));
        tops.iter()
            .take(count)
            .map(|span| format!("{}:{}us", span.name, span.dur_us))
            .collect::<Vec<_>>()
            .join(",")
    }

    /// Completes the root span (named after the request's op, spanning the
    /// whole service time) and returns the request's span tree.
    fn finish(mut self, op: &str, started: Instant, elapsed: Duration) -> Vec<Span> {
        let root = Span {
            trace_id: self.trace_id.clone(),
            span_id: self.root_id,
            parent_id: 0,
            name: op.to_owned(),
            start_us: epoch_us(started),
            dur_us: elapsed.as_micros().min(u128::from(u64::MAX)) as u64,
            annotations: Vec::new(),
        };
        self.spans.push(root);
        self.spans
    }
}

/// Shared state of a running server.
struct ServerState {
    store: ShardedStore,
    kernels: HashMap<String, CompiledKernel>,
    inflight: Inflight,
    /// This server's instrument registry; the `metrics` op merges it with
    /// [`Registry::global`] (where the explore engine, the sharded store and
    /// the wire clients record).
    registry: Registry,
    counters: Counters,
    /// The ring of timestamped merged snapshots the `series` op answers
    /// from; fed by the sampler thread (empty while the sampler is off).
    series: SeriesBuffer,
    /// SLO rules evaluated against the series ring every sampler tick;
    /// `None` when no rules were configured.
    slos: Option<SloEvaluator>,
    /// Slow-query log threshold in microseconds; 0 disables the log.
    slow_query_us: u64,
    /// Idle-connection deadline; zero disables it.
    idle_timeout: Duration,
    shutdown: AtomicBool,
    started: Instant,
    /// Read-shutdown handles of the currently open connections, keyed by a
    /// per-connection id.  A graceful shutdown walks this table and shuts
    /// down each socket's *read* half: workers blocked reading an idle
    /// keep-alive connection wake with EOF (pending replies can still be
    /// written), so draining never waits on clients that simply keep their
    /// connection open — the cluster router does exactly that.
    open_connections: Mutex<HashMap<u64, TcpStream>>,
    next_connection_id: AtomicU64,
}

impl ServerState {
    /// Opens the sharded store and builds everything a server answers from,
    /// without a listener: [`Server::bind`] binds one beside it, and tests
    /// drive [`serve_request`](Self::serve_request) over in-memory bytes.
    fn open(config: &ServerConfig) -> Result<Self, ServeError> {
        let store = ShardedStore::open(&config.cache_dir, config.shards)?;
        let mut kernels = HashMap::new();
        kernels.insert("example".to_owned(), CompiledKernel::new(paper_example()));
        for spec in paper_suite() {
            kernels.insert(spec.kernel.name().to_owned(), spec.compiled());
        }
        let registry = Registry::new();
        let counters = Counters::register(&registry);
        let mut rules = Vec::new();
        for spec in &config.slos {
            rules.push(SloRule::parse(spec).map_err(ServeError::Config)?);
        }
        // Size the series ring to cover the longest SLO window at the
        // configured cadence (plus slack), so a rule never starves for
        // history; without rules the default depth is plenty for `top`.
        let mut capacity = SeriesBuffer::DEFAULT_CAPACITY;
        if config.sample_interval_ms > 0 {
            let interval_us = config.sample_interval_ms.saturating_mul(1_000).max(1);
            for rule in &rules {
                let needed = (rule.window_us() / interval_us).saturating_add(2);
                capacity = capacity.max(usize::try_from(needed).unwrap_or(usize::MAX));
            }
        }
        let slos = if rules.is_empty() {
            None
        } else {
            Some(SloEvaluator::new(rules, &registry))
        };
        let state = Self {
            store,
            kernels,
            inflight: Inflight::default(),
            registry,
            counters,
            series: SeriesBuffer::new(capacity.min(4096)),
            slos,
            slow_query_us: config.slow_query_us,
            idle_timeout: Duration::from_secs(config.idle_timeout_secs),
            shutdown: AtomicBool::new(false),
            started: Instant::now(),
            open_connections: Mutex::new(HashMap::new()),
            next_connection_id: AtomicU64::new(0),
        };
        if config.sample_interval_ms > 0 {
            // The t0 baseline: without it, traffic served before the
            // sampler's first tick would fall into no window delta.
            state.series.record(merged_snapshot(&state));
        }
        Ok(state)
    }

    /// Registers a connection's read-shutdown handle; returns its id.  When
    /// the server is already shutting down, the read half is shut down
    /// immediately so the connection cannot linger.
    fn register_connection(&self, stream: &TcpStream) -> Option<u64> {
        let handle = stream.try_clone().ok()?;
        let id = self.next_connection_id.fetch_add(1, Ordering::Relaxed);
        self.open_connections
            .lock()
            .expect("no worker panics while holding the connection table lock")
            .insert(id, handle);
        self.counters.open_connections.inc();
        if self.shutdown.load(Ordering::SeqCst) {
            let _ = stream.shutdown(std::net::Shutdown::Read);
        }
        Some(id)
    }

    /// Drops a connection's registry entry.
    fn deregister_connection(&self, id: u64) {
        self.open_connections
            .lock()
            .expect("no worker panics while holding the connection table lock")
            .remove(&id);
        self.counters.open_connections.dec();
    }

    /// Wakes every open connection's worker by shutting down the socket read
    /// halves; called once the shutdown flag is set.
    fn close_idle_connections(&self) {
        let open = self
            .open_connections
            .lock()
            .expect("no worker panics while holding the connection table lock");
        for stream in open.values() {
            let _ = stream.shutdown(std::net::Shutdown::Read);
        }
    }
}

/// Final report returned by [`Server::run`] after a graceful shutdown.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServerReport {
    /// The statistics at shutdown time.
    pub stats: ServerStats,
}

/// Resolves a device name the way the CLI does (`xcv1000` / `xcv300`,
/// case-insensitive; full part names also accepted).
///
/// # Errors
///
/// Returns a user-facing message naming the unknown device.
pub fn device_by_name(name: &str) -> Result<DeviceModel, String> {
    static DEVICES: OnceLock<[DeviceModel; 2]> = OnceLock::new();
    let devices = DEVICES.get_or_init(|| [DeviceModel::xcv1000(), DeviceModel::xcv300()]);
    let wanted = name.as_bytes();
    devices
        .iter()
        .find(|device| {
            // The whole part name, or the part before its `-package` suffix.
            let full = device.name().as_bytes();
            full.eq_ignore_ascii_case(wanted)
                || (full.get(wanted.len()) == Some(&b'-')
                    && full[..wanted.len()].eq_ignore_ascii_case(wanted))
        })
        .cloned()
        .ok_or_else(|| format!("unknown device `{name}`; expected xcv1000 or xcv300"))
}

/// The design point a query names, its allocator and device resolved by
/// name: the one resolver behind [`canonical_for`] and the server's answers.
/// A RAM latency above [`MAX_RAM_LATENCY`] is refused.
fn resolve(point: &QueryPoint) -> Result<DesignPoint, String> {
    let allocator = AllocatorRegistry::global()
        .get(&point.algorithm)
        .ok_or_else(|| format!("unknown algorithm `{}`", point.algorithm))?;
    if point.ram_latency > MAX_RAM_LATENCY {
        return Err(format!(
            "RAM latency {} exceeds the limit of {MAX_RAM_LATENCY} cycles",
            point.ram_latency
        ));
    }
    Ok(DesignPoint {
        kernel_index: 0, // Unused outside an explorer; the kernel is passed directly.
        kernel: point.kernel.clone(),
        allocator,
        budget: point.budget,
        ram_latency: point.ram_latency,
        device: device_by_name(&point.device)?,
    })
}

/// The canonical design-point string for a named query, resolved exactly as
/// the server resolves it — so a client-side `get` matches what `explore`
/// stored.
///
/// # Errors
///
/// Returns a user-facing message for an unknown algorithm or device, or a RAM
/// latency above [`MAX_RAM_LATENCY`] (kernel names pass through verbatim; an
/// unknown kernel simply misses).
pub fn canonical_for(point: &QueryPoint) -> Result<String, String> {
    resolve(point).map(|point| point.canonical())
}

/// A bound, not-yet-running query server.
///
/// Separating [`bind`](Server::bind) from [`run`](Server::run) lets callers
/// learn the ephemeral port before the accept loop starts — integration tests
/// and `ci.sh` depend on it.
pub struct Server {
    listener: TcpListener,
    local_addr: SocketAddr,
    state: ServerState,
    workers: usize,
    sample_interval: Duration,
}

impl Server {
    /// Opens the sharded store, then binds the listener.
    ///
    /// # Errors
    ///
    /// Socket errors ([`ServeError::Io`]), store errors
    /// ([`ServeError::Shard`], including the directory lock) and a malformed
    /// SLO rule ([`ServeError::Config`]).
    pub fn bind(config: &ServerConfig) -> Result<Self, ServeError> {
        let state = ServerState::open(config)?;
        let listener = TcpListener::bind(&config.addr)?;
        Ok(Self {
            local_addr: listener.local_addr()?,
            listener,
            state,
            workers: config.workers.max(1),
            sample_interval: Duration::from_millis(config.sample_interval_ms),
        })
    }

    /// The bound address (with the real port when the config asked for `:0`).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Serves until a `shutdown` request arrives, then drains and returns the
    /// final statistics.
    ///
    /// # Errors
    ///
    /// Fatal listener errors only; per-connection I/O errors close that
    /// connection and are not fatal.
    pub fn run(self) -> Result<ServerReport, ServeError> {
        let Self {
            listener,
            local_addr,
            state,
            workers,
            sample_interval,
        } = self;
        let (sender, receiver) = mpsc::channel::<TcpStream>();
        let receiver = Mutex::new(receiver);
        let state_ref = &state;
        std::thread::scope(|scope| -> Result<(), ServeError> {
            for _ in 0..workers {
                let receiver = &receiver;
                scope.spawn(move || loop {
                    let next = receiver
                        .lock()
                        .expect("no worker panics while holding the receiver lock")
                        .recv();
                    match next {
                        Ok(stream) => serve_connection(state_ref, stream, local_addr),
                        Err(_) => break, // Accept loop is done and queue drained.
                    }
                });
            }
            if !sample_interval.is_zero() {
                scope.spawn(move || run_sampler(state_ref, sample_interval));
            }
            // The accept loop runs inside a closure so *every* exit — clean
            // shutdown, worker-channel teardown, fatal listener error — falls
            // through to the shutdown-flag store below; the sampler thread
            // polls that flag and would otherwise pin the scope open forever
            // on the error path.
            let accepting = || -> Result<(), ServeError> {
                for incoming in listener.incoming() {
                    if state_ref.shutdown.load(Ordering::SeqCst) {
                        break; // The wake-up connection is dropped unserved.
                    }
                    match incoming {
                        Ok(stream) => {
                            state_ref.counters.connections.inc();
                            if sender.send(stream).is_err() {
                                break;
                            }
                        }
                        // Transient accept-level failures (peer reset before
                        // the accept, interrupted syscall) concern one
                        // connection, not the listener — keep serving.
                        Err(err)
                            if matches!(
                                err.kind(),
                                std::io::ErrorKind::ConnectionAborted
                                    | std::io::ErrorKind::ConnectionReset
                                    | std::io::ErrorKind::Interrupted
                                    | std::io::ErrorKind::WouldBlock
                            ) => {}
                        Err(err) => return Err(err.into()),
                    }
                }
                Ok(())
            };
            let outcome = accepting();
            state_ref.shutdown.store(true, Ordering::SeqCst);
            drop(sender);
            outcome
        })?;
        let stats = snapshot_stats(&state)?;
        Ok(ServerReport { stats })
    }
}

/// The opt-in metrics sampler: every `interval` it pushes one timestamped
/// merged snapshot into the series ring and evaluates the SLO rules against
/// the updated ring.  Sleeps in short slices so shutdown is never delayed.
fn run_sampler(state: &ServerState, interval: Duration) {
    let slice = interval.min(Duration::from_millis(50));
    let mut next = Instant::now();
    while !state.shutdown.load(Ordering::SeqCst) {
        if Instant::now() < next {
            std::thread::sleep(slice);
            continue;
        }
        next += interval;
        state.series.record(merged_snapshot(state));
        if let Some(slos) = &state.slos {
            slos.evaluate(&state.series);
        }
    }
}

/// This server's registry merged with the process-global one — the exact
/// view the `metrics` op scrapes, so series samples and live scrapes agree.
fn merged_snapshot(state: &ServerState) -> srra_obs::MetricsSnapshot {
    let mut snapshot = state.registry.snapshot();
    snapshot.merge(&Registry::global().snapshot());
    snapshot
}

/// Builds the current [`ServerStats`] from the shared state.
fn snapshot_stats(state: &ServerState) -> Result<ServerStats, ServeError> {
    let uptime = state.started.elapsed();
    Ok(ServerStats {
        uptime_ms: uptime.as_millis() as u64,
        uptime_secs: uptime.as_secs(),
        version: env!("CARGO_PKG_VERSION").to_owned(),
        connections: state.counters.connections.get(),
        requests: state.counters.requests.get(),
        hits: state.counters.hits.get(),
        misses: state.counters.misses.get(),
        evaluated: state.counters.evaluated.get(),
        shard_records: state.store.shard_sizes()?,
        ops: state.counters.op_stats(),
    })
}

/// Serves one connection, one reply per request in strict request order:
/// the socket loop around [`ServerState::serve_request`].  It keeps the
/// stream, one request and one reply buffer for the connection's lifetime,
/// one `write_all` per reply, idle reaping and the start of a shutdown.
fn serve_connection(state: &ServerState, stream: TcpStream, local_addr: SocketAddr) {
    // Register before serving so a graceful shutdown can wake this
    // connection's blocking read; deregister on the way out.  A connection
    // whose socket cannot be cloned (fd exhaustion) is refused outright —
    // serving it unregistered could leave a graceful shutdown waiting
    // forever on its read, and the client's reconnect-and-retry turns the
    // refusal into one clean retry on a fresh socket.
    let Ok(write_half) = stream.try_clone() else {
        return;
    };
    let Some(id) = state.register_connection(&stream) else {
        return;
    };
    // Replies are latency-sensitive single lines: never let Nagle hold them.
    let _ = stream.set_nodelay(true);
    // The idle-connection deadline rides on a plain read timeout: a client
    // that stays silent past it fails the read with `WouldBlock`/`TimedOut`
    // and the connection is reaped.
    if !state.idle_timeout.is_zero() {
        let _ = stream.set_read_timeout(Some(state.idle_timeout));
    }
    let mut connection = BufReader::new(Duplex {
        read: stream,
        write: BufWriter::new(write_half),
    });
    let (mut request, mut reply) = (Vec::with_capacity(256), Vec::with_capacity(256));
    loop {
        let next = match state.serve_request(&mut connection, &mut request, &mut reply) {
            Ok(next) => next,
            // The idle deadline fired (timeouts surface as `WouldBlock` on
            // Unix and `TimedOut` on Windows), or the peer vanished.
            Err(err) => {
                if matches!(
                    err.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) {
                    state.counters.idle_reaped.inc();
                }
                break;
            }
        };
        let writer = &mut connection.get_mut().write;
        if writer.write_all(&reply).is_ok() && next == Next::Reply {
            continue;
        }
        let _ = writer.flush();
        if next == Next::Shutdown {
            state.shutdown.store(true, Ordering::SeqCst);
            // Poke the accept loop awake; it re-checks the flag and exits.
            let _ = TcpStream::connect(local_addr);
            // Wake workers blocked on idle keep-alive connections: their
            // sockets' read halves are shut down, their reads return EOF and
            // the drain completes without waiting for clients to hang up.
            state.close_idle_connections();
        }
        break;
    }
    state.deregister_connection(id);
}

/// A connection's two halves behind one reader.  Every read from the socket
/// first flushes the replies buffered for it, so a reply waits only while
/// the next request is already buffered and will be answered without
/// blocking: pipelined replies go out in large writes, and no reply is
/// stranded while the worker waits on the socket.
struct Duplex {
    read: TcpStream,
    write: BufWriter<TcpStream>,
}

impl Read for Duplex {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        self.write.flush()?;
        self.read.read(buf)
    }
}

/// What the socket loop does after [`ServerState::serve_request`]: send
/// the reply (if any), then read the next request, close the connection, or
/// shut the server down.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Next {
    Reply,
    Close,
    Shutdown,
}

impl ServerState {
    /// The socket-free request handler: reads the next request off `reader`
    /// into `request`, answers it, accounts it (counters, spans, the
    /// slow-query log) and renders the reply into `reply` in the request's
    /// codec.  The reply is empty when the stream ended.
    ///
    /// # Errors
    ///
    /// The reader's I/O errors.
    fn serve_request(
        &self,
        reader: &mut impl BufRead,
        request: &mut Vec<u8>,
        reply: &mut Vec<u8>,
    ) -> std::io::Result<Next> {
        reply.clear();
        let Some((codec, message)) = read_message::<Request>(reader, request)? else {
            return Ok(Next::Close);
        };
        let started = Instant::now();
        self.counters.requests.inc();
        self.counters.codecs[codec as usize].inc();
        let bytes = match message {
            Ok(bytes) => bytes,
            // Where the next request starts is unknowable: answer once, then
            // close the connection.
            Err(message) => {
                self.counters.record_op(Op::Invalid, Duration::ZERO, None);
                render(reply, codec, None, &Response::Error { message });
                return Ok(Next::Close);
            }
        };
        // A message that fails to decode is recoverable: its end was found,
        // so it is answered with an error and the stream stays in sync.
        let (parsed, trace) = match decode::<Request>(codec, bytes) {
            Ok((request, trace)) => (Ok(request), trace),
            Err(message) => (Err(message), None),
        };
        let parse_elapsed = started.elapsed();
        self.counters.codec_parse_us.record(parse_elapsed);
        let trace = trace.as_deref();
        // Traced requests accumulate a span tree; untraced requests never
        // allocate a collector.
        let mut collector = trace.map(SpanCollector::new);
        if let Some(spans) = collector.as_mut() {
            self.counters.traced_requests.inc();
            spans
                .child("parse", started, parse_elapsed)
                .annotations
                .push(("codec".to_owned(), codec.name().to_owned()));
        }
        let (response, op) = match parsed {
            Err(message) => (Response::Error { message }, Op::Invalid),
            Ok(request) => (
                handle(self, &request, trace, collector.as_mut()),
                request.op(),
            ),
        };
        let render_started = Instant::now();
        render(reply, codec, trace, &response);
        let render_elapsed = render_started.elapsed();
        self.counters.codec_render_us.record(render_elapsed);
        // Account the request and record its span tree BEFORE the reply
        // leaves: a client holding the reply must find the trace queryable,
        // so the spans have to reach the flight recorder first.  `elapsed`
        // therefore covers parse through render, not the socket write.
        let elapsed = started.elapsed();
        self.counters.record_op(op, elapsed, trace);
        let slow = self.slow_query_us > 0 && elapsed.as_micros() >= u128::from(self.slow_query_us);
        let mut span_note = String::new();
        if let Some(mut spans) = collector.take() {
            spans.child("render", render_started, render_elapsed);
            if slow {
                span_note = format!(" spans={}", spans.slow_note(2));
            }
            let trace_id = spans.trace_id.clone();
            self.registry
                .traces()
                .record_all(spans.finish(op.name(), started, elapsed));
            if slow {
                // Pin after recording: the pin copies this trace's spans out
                // of the ring into the retained set.
                self.registry.traces().pin(&trace_id);
                self.counters.pinned_traces.inc();
            }
        }
        if slow {
            self.counters.slow_queries.inc();
            eprintln!(
                "srra-serve slow-query: op={} elapsed_us={} trace={}{span_note}",
                op.name(),
                elapsed.as_micros(),
                trace.unwrap_or("-"),
            );
        }
        Ok(if op == Op::Shutdown {
            Next::Shutdown
        } else {
            Next::Reply
        })
    }
}

/// Renders `response` into `reply` in `codec`, echoing `trace`; a reply over
/// the frame cap becomes an error reply.
fn render(reply: &mut Vec<u8>, codec: Codec, trace: Option<&str>, response: &Response) {
    if write_messages(reply, codec, trace, std::slice::from_ref(response)).is_err() {
        let error = Response::Error {
            message: format!("reply exceeded the {MAX_FRAME_LEN}-byte frame cap"),
        };
        let _ = write_messages(reply, codec, None, std::slice::from_ref(&error));
    }
}

/// Answers one decoded request; `trace` and `collector` are the request's
/// trace id and span accumulator, when it carried a trace id.
fn handle(
    state: &ServerState,
    request: &Request,
    trace: Option<&str>,
    mut collector: Option<&mut SpanCollector>,
) -> Response {
    let failed = |message: String| Response::Error { message };
    match request {
        Request::Get { canonical } => match lookup(state, canonical, collector) {
            Ok(Some(record)) => Response::Found { record },
            Ok(None) => Response::NotFound,
            Err(err) => failed(err.to_string()),
        },
        Request::MultiGet { canonicals } => canonicals
            .iter()
            .map(|canonical| lookup(state, canonical, collector.as_deref_mut()))
            .collect::<Result<_, _>>()
            .map_or_else(
                |err| failed(err.to_string()),
                |records| Response::MultiGot { records },
            ),
        Request::Explore { points } => {
            flushed(state, handle_explore(state, points, trace, collector))
        }
        Request::MultiExplore { points } => {
            flushed(state, handle_mexplore(state, points, trace, collector))
        }
        Request::Put { records } => flushed(state, handle_put(state, records)),
        Request::Ping => Response::Pong,
        Request::Stats => {
            snapshot_stats(state).map_or_else(|err| failed(err.to_string()), Response::Stats)
        }
        Request::Metrics { prometheus } => handle_metrics(state, *prometheus),
        // An unknown or churned-out trace answers an empty list, not an
        // error: the flight recorder is best-effort by design.
        Request::Trace { id } => Response::Traced {
            spans: state.registry.traces().snapshot(id),
        },
        Request::Series { last, window_us } => handle_series(state, *last, *window_us),
        Request::Digest => Response::Digests {
            digests: state.store.digests(),
        },
        Request::Scan {
            shard,
            offset,
            limit,
        } => handle_scan(state, *shard, *offset, *limit),
        Request::Shutdown => Response::ShuttingDown,
    }
}

/// `response`, once the store's buffered appends are in their shard files:
/// every record a storing request names (evaluated, stored, or a hit on
/// another request's append) is on disk before its reply leaves.  The
/// flush runs on error replies too, and a failed flush becomes the reply.
fn flushed(state: &ServerState, response: Response) -> Response {
    match state.store.flush() {
        Ok(()) => response,
        Err(err) => Response::Error {
            message: err.to_string(),
        },
    }
}

/// Answers a `metrics` scrape: this server's registry merged with the
/// process-global one (explore engine, sharded store, wire clients), as JSON
/// or as a Prometheus-style text exposition.
fn handle_metrics(state: &ServerState, prometheus: bool) -> Response {
    let snapshot = merged_snapshot(state);
    if prometheus {
        Response::MetricsText {
            text: snapshot.render_prometheus(),
        }
    } else {
        Response::Metrics(snapshot)
    }
}

/// Answers a `series`: the newest `last` samples of the metrics ring
/// (oldest first), or the delta across the trailing `window_us` window.
/// Sample mode with an idle sampler answers an empty list; window mode
/// needs two samples inside the window, so it names the sampler knob when
/// there are not enough.
fn handle_series(state: &ServerState, last: u64, window_us: u64) -> Response {
    if last > 0 {
        let count = usize::try_from(last).unwrap_or(usize::MAX);
        return Response::Series {
            samples: state.series.last(count),
        };
    }
    match state.series.window_delta(window_us) {
        Some(delta) => Response::SeriesDelta { delta },
        None => Response::Error {
            message: "series: not enough samples in the window; is the sampler running \
                      (`--sample-interval-ms`)?"
                .to_owned(),
        },
    }
}

/// Answers a `scan`: one offset-paged window of a shard's canonicals.
fn handle_scan(state: &ServerState, shard: u64, offset: u64, limit: u64) -> Response {
    let count = state.store.shard_count() as u64;
    if shard >= count {
        return Response::Error {
            message: format!("scan: shard {shard} out of range (server has {count} shards)"),
        };
    }
    let offset = usize::try_from(offset).unwrap_or(usize::MAX);
    let limit = usize::try_from(limit).unwrap_or(usize::MAX);
    let (canonicals, done) = state.store.scan(shard as usize, offset, limit);
    Response::Scanned { canonicals, done }
}

/// One shard lookup, with a `shard.lock_wait` span (annotated with the shard
/// index) when the request is traced.
fn shard_lookup(
    state: &ServerState,
    key: u64,
    canonical: &str,
    collector: Option<&mut SpanCollector>,
) -> Result<Option<PointRecord>, ShardError> {
    match collector {
        None => state.store.get_record(key, canonical),
        Some(spans) => {
            let started = Instant::now();
            let (record, lock_wait) = state.store.get_record_timed(key, canonical)?;
            spans
                .child("shard.lock_wait", started, lock_wait)
                .annotations
                .push(("shard".to_owned(), state.store.route(key).to_string()));
            Ok(record)
        }
    }
}

/// The pure lookup behind `get` and each `mget` entry: never evaluates, and
/// counts a hit or a miss.
fn lookup(
    state: &ServerState,
    canonical: &str,
    collector: Option<&mut SpanCollector>,
) -> Result<Option<PointRecord>, ShardError> {
    let key = srra_explore::fnv1a_64(canonical.as_bytes());
    let record = shard_lookup(state, key, canonical, collector)?;
    if record.is_some() {
        state.counters.hits.inc();
    } else {
        state.counters.misses.inc();
    }
    Ok(record)
}

/// Answers a `put`: stores pre-evaluated records verbatim, skipping records
/// whose canonical is already present.  A stored record is found under its
/// shard's read lock without being copied, so a repeated put (a rebalance
/// re-sends every record to owners that may hold it) takes no write lock.
/// The replication tee of the cluster router lands here, so the records must
/// be byte-identical to what the evaluating node stored — [`PointRecord`]'s
/// JSONL round trip guarantees it.
fn handle_put(state: &ServerState, records: &[PointRecord]) -> Response {
    let mut stored = 0;
    for record in records {
        // The protocol is open to third-party clients: reject a record whose
        // wire-supplied key does not match its canonical, or the store gains
        // an entry no lookup can ever reach (and compact would keep routing
        // by the bogus key forever).
        let expected = srra_explore::fnv1a_64(record.canonical.as_bytes());
        if record.key != expected {
            return Response::Error {
                message: format!(
                    "put: record key {:#x} does not match its canonical (expected {expected:#x})",
                    record.key
                ),
            };
        }
        // JSON has no form for NaN or infinity: such a record would break
        // every JSON reply that names it.
        if !record.clock_period_ns.is_finite() || !record.execution_time_us.is_finite() {
            return Response::Error {
                message: format!(
                    "put: record `{}` carries a non-finite clock period or execution time",
                    record.canonical
                ),
            };
        }
        if state.store.contains_record(record.key, &record.canonical) {
            continue;
        }
        match state.store.put_record(record) {
            Ok(true) => stored += 1,
            Ok(false) => {}
            Err(err) => {
                return Response::Error {
                    message: err.to_string(),
                }
            }
        }
    }
    Response::Stored { stored }
}

/// Answers an `mexplore` batch: like `explore`, but a point that fails to
/// resolve yields a per-point error instead of failing the whole batch.
fn handle_mexplore(
    state: &ServerState,
    points: &[QueryPoint],
    trace: Option<&str>,
    collector: Option<&mut SpanCollector>,
) -> Response {
    let (mut hits, mut evaluated) = (0, 0);
    let outcomes = answers(state, points, trace, collector)
        .map(|answer| match answer {
            Ok((record, hit)) => {
                if hit {
                    hits += 1;
                } else {
                    evaluated += 1;
                }
                PointOutcome::Answered { record, hit }
            }
            Err(error) => PointOutcome::Failed { error },
        })
        .collect();
    Response::MultiExplored {
        outcomes,
        hits,
        evaluated,
    }
}

/// Answers an `explore` batch: hits from the shards, misses evaluated exactly
/// once (across all concurrent clients) and written back.  The first point
/// that fails fails the batch, and no point after it is evaluated.
fn handle_explore(
    state: &ServerState,
    points: &[QueryPoint],
    trace: Option<&str>,
    collector: Option<&mut SpanCollector>,
) -> Response {
    let mut hits = 0;
    let records = answers(state, points, trace, collector)
        .map(|answer| {
            answer.map(|(record, hit)| {
                hits += u64::from(hit);
                record
            })
        })
        .collect::<Result<Vec<_>, _>>();
    match records {
        Ok(records) => Response::Explored {
            evaluated: records.len() as u64 - hits,
            records,
            hits,
        },
        Err(message) => Response::Error { message },
    }
}

/// The answers to `points` in request order, computed lazily: a point is
/// looked up, or evaluated, only when the caller asks for its answer.  The
/// points this request evaluates go through one [`BatchEvaluator`], so they
/// share their kernels' cost tables and their runs' allocations.
fn answers<'a>(
    state: &'a ServerState,
    points: &'a [QueryPoint],
    trace: Option<&'a str>,
    mut collector: Option<&'a mut SpanCollector>,
) -> impl Iterator<Item = Result<(PointRecord, bool), String>> + 'a {
    let mut evaluator = BatchEvaluator::new();
    points.iter().map(move |point| {
        answer_point(
            state,
            point,
            &mut evaluator,
            trace,
            collector.as_deref_mut(),
        )
    })
}

/// Resolves and answers one point; the boolean is `true` when the record came
/// from the store without this request evaluating it.
fn answer_point<'a>(
    state: &'a ServerState,
    point: &QueryPoint,
    evaluator: &mut BatchEvaluator<'a>,
    trace: Option<&str>,
    mut collector: Option<&mut SpanCollector>,
) -> Result<(PointRecord, bool), String> {
    let kernel = state.kernels.get(&point.kernel).ok_or_else(|| {
        format!(
            "unknown kernel `{}`; expected example, fir, dec_fir, mat, imi, pat or bic",
            point.kernel
        )
    })?;
    let design_point = resolve(point)?;
    let canonical = design_point.canonical();
    let key = fnv1a_64(canonical.as_bytes());
    let mut first_try = true;
    loop {
        match shard_lookup(state, key, &canonical, collector.as_deref_mut()) {
            Ok(Some(record)) => {
                state.counters.hits.inc();
                return Ok((record, first_try));
            }
            Ok(None) => {}
            Err(err) => return Err(err.to_string()),
        }
        let claim_started = Instant::now();
        if let Some(claim) = state.inflight.claim(key, trace) {
            state.counters.inflight_claims.inc();
            if let Some(spans) = collector.as_deref_mut() {
                spans.child("inflight.claim", claim_started, claim_started.elapsed());
            }
            let outcome = evaluate_claimed(
                state,
                key,
                &canonical,
                trace,
                collector.as_deref_mut(),
                || evaluator.evaluate(kernel, &design_point, &canonical, key),
            );
            drop(claim);
            return outcome;
        }
        // Another worker is evaluating this key: wait for it, then re-read.
        state.counters.inflight_waits.inc();
        let wait_started = Instant::now();
        let claimant = state.inflight.wait_released(key);
        let waited = wait_started.elapsed();
        if let Some(spans) = collector.as_deref_mut() {
            let child = spans.child("inflight.wait", wait_started, waited);
            if let Some(claimant) = &claimant {
                child
                    .annotations
                    .push(("claimant".to_owned(), claimant.clone()));
            }
        }
        if state.slow_query_us > 0 && waited.as_micros() >= u128::from(state.slow_query_us) {
            eprintln!(
                "srra-serve slow-wait: canonical={canonical} waited_us={} trace={} claimant_trace={}",
                waited.as_micros(),
                trace.unwrap_or("-"),
                claimant.as_deref().unwrap_or("-"),
            );
        }
        first_try = false;
    }
}

/// Runs while holding the in-flight claim on `key`: re-checks the store
/// first — the previous holder may have published between this request's
/// miss and its claim succeeding — then calls `evaluate`, the point's
/// evaluation through the request's [`BatchEvaluator`], and puts the record
/// into the store's arena and write buffer.  Without the re-check a
/// preempted worker could evaluate a point twice, breaking the exactly-once
/// guarantee.  The caller releases the claim; the request flushes the store
/// once, after its last point.
fn evaluate_claimed(
    state: &ServerState,
    key: u64,
    canonical: &str,
    trace: Option<&str>,
    collector: Option<&mut SpanCollector>,
    evaluate: impl FnOnce() -> (PointRecord, StageTimings),
) -> Result<(PointRecord, bool), String> {
    match state.store.get_record(key, canonical) {
        Ok(Some(record)) => {
            state.counters.hits.inc();
            Ok((record, false))
        }
        Ok(None) => {
            let eval_started = Instant::now();
            let (record, timings) = evaluate();
            let eval_elapsed = eval_started.elapsed();
            if let Some(spans) = collector {
                // The engine reports stage durations, not wall-clock bounds;
                // lay the children end to end from the evaluation start so
                // the waterfall shows them in pipeline order.
                let mut at = eval_started;
                if timings.reuse_analysis_us > 0 {
                    let dur = Duration::from_micros(timings.reuse_analysis_us);
                    spans.child("engine.reuse_analysis", at, dur);
                    at += dur;
                }
                if let Some(micros) = timings.allocation_us {
                    let dur = Duration::from_micros(micros);
                    spans.child("engine.allocation", at, dur);
                    at += dur;
                }
                if record.feasible {
                    let dur = Duration::from_micros(timings.cost_model_us);
                    spans.child("engine.cost_model", at, dur);
                }
            }
            if state.slow_query_us > 0
                && eval_elapsed.as_micros() >= u128::from(state.slow_query_us)
            {
                state.counters.slow_queries.inc();
                eprintln!(
                    "srra-serve slow-eval: canonical={canonical} shard={} elapsed_us={} trace={}",
                    state.store.route(key),
                    eval_elapsed.as_micros(),
                    trace.unwrap_or("-"),
                );
            }
            if let Err(err) = state.store.put_record(&record) {
                return Err(err.to_string());
            }
            state.counters.misses.inc();
            state.counters.evaluated.inc();
            Ok((record, false))
        }
        Err(err) => Err(err.to_string()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::binary::BINARY_MAGIC;

    /// How long a test waits for a wake-up before it fails instead of hanging.
    const WAKE_DEADLINE: Duration = Duration::from_secs(10);

    /// A fresh cache directory for one test.
    fn scratch_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "srra-serve-{tag}-unit-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// Reads the next reply of either codec off `reader` through the shared
    /// reader, with the trace id it echoes.
    fn next_reply(reader: &mut impl BufRead) -> (Response, Option<String>) {
        let mut buf = Vec::new();
        match read_message::<Response>(reader, &mut buf).expect("the reply reads") {
            Some((codec, Ok(bytes))) => decode(codec, bytes).expect("the reply decodes"),
            _ => panic!("expected a whole reply"),
        }
    }

    #[test]
    fn one_buffer_of_both_codecs_gets_the_replies_a_socket_gets() {
        let canonical = "kernel=fir;algo=CPA-RA;budget=32;latency=2;device=XCV1000-BG560";
        let frame = |trace: Option<&str>, request: Request| {
            let mut out = Vec::new();
            write_messages(&mut out, Codec::Binary, trace, &[request]).expect("frames");
            out
        };
        // JSON lines and binary frames interleaved: a blank line, a
        // malformed line, a frame whose payload is garbage and two traced
        // requests among them.
        let mut wire = b"{\"op\":\"ping\"}\n \r\n".to_vec();
        wire.extend(frame(
            Some("t.explore"),
            Request::Explore {
                points: vec![QueryPoint::new("fir", "cpa", 32)],
            },
        ));
        wire.extend_from_slice(b"{\"op\":\"nope\"}\n");
        wire.extend(frame(
            None,
            Request::Get {
                canonical: canonical.to_owned(),
            },
        ));
        wire.extend_from_slice(
            format!(
                "{{\"op\":\"mget\",\"canonicals\":[\"{canonical}\",\"kernel=nope\"],\"trace\":\"t.mget\"}}\n"
            )
            .as_bytes(),
        );
        wire.extend_from_slice(&[BINARY_MAGIC, 2, 0, 0, 0, 0, 0xEE]);
        wire.extend(frame(None, Request::Ping));

        // Through the handler, with no socket.
        let dir = scratch_dir("handler");
        let state = ServerState::open(&ServerConfig::ephemeral(&dir)).unwrap();
        let (mut reader, mut request, mut reply) = (wire.as_slice(), Vec::new(), Vec::new());
        let mut replies = Vec::new();
        while state
            .serve_request(&mut reader, &mut request, &mut reply)
            .unwrap()
            == Next::Reply
        {
            replies.push(reply.clone());
        }
        assert!(reply.is_empty(), "the buffer ends after its last request");
        drop(state);
        let decoded: Vec<_> = replies
            .iter()
            .map(|r| next_reply(&mut r.as_slice()))
            .collect();
        assert_eq!(decoded.len(), 7, "{decoded:?}");
        assert!(matches!(&decoded[0], (Response::Pong, None)));
        assert!(matches!(&decoded[1],
            (Response::Explored { evaluated: 1, .. }, Some(trace)) if trace == "t.explore"));
        assert!(matches!(&decoded[2], (Response::Error { .. }, None)));
        assert!(matches!(&decoded[3], (Response::Found { .. }, None)));
        assert!(matches!(&decoded[4],
            (Response::MultiGot { .. }, Some(trace)) if trace == "t.mget"));
        assert!(matches!(&decoded[5], (Response::Error { .. }, None)));
        assert!(matches!(&decoded[6], (Response::Pong, None)));
        let binary: Vec<bool> = replies.iter().map(|r| r[0] == BINARY_MAGIC).collect();
        assert_eq!(binary, [false, true, false, true, false, true, true]);

        // The same bytes over a socket, to a bound server on a fresh store.
        let socket_dir = scratch_dir("handler-socket");
        let server = Server::bind(&ServerConfig::ephemeral(&socket_dir)).unwrap();
        let addr = server.local_addr();
        let handle = std::thread::spawn(move || server.run().unwrap());
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.write_all(&wire).unwrap();
        stream.shutdown(std::net::Shutdown::Write).unwrap();
        let mut received = Vec::new();
        stream.read_to_end(&mut received).unwrap();
        assert_eq!(received, replies.concat(), "byte-identical replies");

        crate::Connection::connect(&addr.to_string())
            .unwrap()
            .shutdown()
            .unwrap();
        handle.join().unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        std::fs::remove_dir_all(&socket_dir).unwrap();
    }

    #[test]
    fn an_endless_json_line_gets_the_pinned_error_and_closes() {
        let dir = scratch_dir("endless");
        let state = ServerState::open(&ServerConfig::ephemeral(&dir)).unwrap();
        let mut reader = BufReader::new(std::io::repeat(b'a'));
        let (mut request, mut reply) = (Vec::new(), Vec::new());
        let next = state.serve_request(&mut reader, &mut request, &mut reply);
        assert_eq!(next.unwrap(), Next::Close);
        assert_eq!(
            String::from_utf8(reply).unwrap(),
            "{\"ok\":false,\"error\":\"JSON request line longer than 67108864 bytes\"}\n"
        );
        let metrics = state.registry.snapshot();
        assert_eq!(metrics.counter("serve_op_invalid_total"), Some(1));
        assert_eq!(metrics.counter("serve_codec_json_total"), Some(1));
        drop(state);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Spins, without sleeping, until `count` requests wait on a claim.
    fn wait_for_waiters(inflight: &Inflight, count: usize) {
        let deadline = Instant::now() + WAKE_DEADLINE;
        while inflight.table().waiters < count {
            assert!(Instant::now() < deadline, "{count} waiters never blocked");
            std::thread::yield_now();
        }
    }

    #[test]
    fn a_release_wakes_every_waiter_and_leaves_no_waiter_counted() {
        const KEY: u64 = 7;
        // The waiters run on detached threads: a lost wake-up fails the
        // receive below instead of hanging a scope's join.
        let inflight = Arc::new(Inflight::default());
        let claim = inflight.claim(KEY, Some("claimant")).expect("a free key");
        let (sender, receiver) = mpsc::channel();
        for _ in 0..2 {
            let (inflight, sender) = (Arc::clone(&inflight), sender.clone());
            std::thread::spawn(move || sender.send(inflight.wait_released(KEY)));
        }
        wait_for_waiters(&inflight, 2);
        drop(claim);
        for _ in 0..2 {
            let woken = receiver.recv_timeout(WAKE_DEADLINE).expect("a waiter woke");
            assert_eq!(woken.as_deref(), Some("claimant"));
        }
        assert_eq!(inflight.table().waiters, 0);
        // A release nobody waits on leaves the count at zero.
        drop(inflight.claim(KEY, None).expect("the key was released"));
        assert_eq!(inflight.table().waiters, 0);
        assert!(inflight.table().claims.is_empty());
    }

    #[test]
    fn a_claim_dropped_by_a_panic_wakes_its_waiter_and_frees_the_key() {
        const KEY: u64 = 11;
        let inflight = Arc::new(Inflight::default());
        let (claimed, is_claimed) = mpsc::channel();
        let claimant = {
            let inflight = Arc::clone(&inflight);
            std::thread::spawn(move || {
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    let _claim = inflight.claim(KEY, Some("doomed")).expect("a free key");
                    claimed.send(()).expect("the test listens");
                    wait_for_waiters(&inflight, 1);
                    panic!("an evaluation panics under its claim");
                }))
                .is_err()
            })
        };
        is_claimed
            .recv_timeout(WAKE_DEADLINE)
            .expect("the claim is taken");
        let (sender, receiver) = mpsc::channel();
        {
            let inflight = Arc::clone(&inflight);
            std::thread::spawn(move || sender.send(inflight.wait_released(KEY)));
        }
        let woken = receiver
            .recv_timeout(WAKE_DEADLINE)
            .expect("the waiter woke");
        assert_eq!(woken.as_deref(), Some("doomed"));
        assert!(claimant.join().expect("the panic was caught"));
        assert!(inflight.claim(KEY, None).is_some(), "the key is free again");
    }

    #[test]
    fn a_ks_budget_far_past_every_upgrade_is_answered_and_the_node_keeps_serving() {
        let dir = std::env::temp_dir().join(format!(
            "srra-serve-ks-unit-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let server = Server::bind(&ServerConfig::ephemeral(&dir)).unwrap();
        let addr = server.local_addr().to_string();
        let handle = std::thread::spawn(move || server.run().unwrap());

        let mut connection = crate::Connection::connect(&addr).unwrap();
        let reply = connection
            .explore(&[QueryPoint::new("fir", "ks", 1 << 32)])
            .unwrap();
        assert_eq!(reply.evaluated, 1);
        assert!(reply.records[0].feasible, "{:?}", reply.records[0]);
        assert_eq!(connection.stats().unwrap().evaluated, 1);
        connection.shutdown().unwrap();
        handle.join().unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn canonical_resolution_matches_design_point_canonicals() {
        let point = QueryPoint::new("fir", "cpa", 32);
        let canonical = canonical_for(&point).unwrap();
        assert_eq!(
            canonical,
            "kernel=fir;algo=CPA-RA;budget=32;latency=2;device=XCV1000-BG560"
        );
        assert!(canonical_for(&QueryPoint::new("fir", "nope", 32)).is_err());
        let mut bad_device = QueryPoint::new("fir", "cpa", 32);
        bad_device.device = "xcv9000".to_owned();
        assert!(canonical_for(&bad_device).is_err());
    }

    #[test]
    fn device_names_resolve_case_insensitively() {
        assert_eq!(device_by_name("xcv1000").unwrap(), DeviceModel::xcv1000());
        assert_eq!(
            device_by_name("XCV1000-BG560").unwrap(),
            DeviceModel::xcv1000()
        );
        assert_eq!(device_by_name("Xcv300").unwrap(), DeviceModel::xcv300());
        assert!(device_by_name("xcv9000").is_err());
    }

    #[test]
    fn put_validates_keys_and_stores_records_verbatim() {
        let dir = std::env::temp_dir().join(format!(
            "srra-serve-put-unit-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let server = Server::bind(&ServerConfig::ephemeral(&dir)).unwrap();
        let addr = server.local_addr().to_string();
        let handle = std::thread::spawn(move || server.run().unwrap());

        let mut connection = crate::Connection::connect(&addr).unwrap();
        let mut record = PointRecord {
            key: srra_explore::fnv1a_64(b"kernel=fir;algo=CPA-RA;budget=32"),
            canonical: "kernel=fir;algo=CPA-RA;budget=32".to_owned(),
            kernel: "fir".to_owned(),
            algorithm: "CPA-RA".to_owned(),
            version: "v3".to_owned(),
            budget: 32,
            ram_latency: 2,
            device: "XCV1000-BG560".to_owned(),
            feasible: true,
            fits: true,
            registers_used: 17,
            total_cycles: 4242,
            compute_cycles: 4000,
            memory_cycles: 200,
            transfer_cycles: 42,
            clock_period_ns: 10.573,
            execution_time_us: 1_305.312_048,
            slices: 471,
            block_rams: 3,
            distribution: "a:16".to_owned(),
        };
        // A fresh record stores once; the byte-identical duplicate no-ops.
        assert_eq!(connection.put(std::slice::from_ref(&record)).unwrap(), 1);
        assert_eq!(connection.put(std::slice::from_ref(&record)).unwrap(), 0);
        let read_back = connection.get(&record.canonical).unwrap().unwrap();
        assert_eq!(read_back, record);
        // A record whose wire key does not hash its canonical is rejected —
        // it would be unreachable by every lookup.
        record.key ^= 1;
        match connection.put(std::slice::from_ref(&record)) {
            Err(crate::ClientError::Server(message)) => {
                assert!(message.contains("does not match"), "{message}");
            }
            other => panic!("expected a server error, got {other:?}"),
        }
        // A non-finite float has no JSON form, so a record carrying one would
        // break every JSON read of it: refused even over the binary codec.
        record.canonical = "kernel=fir;algo=CPA-RA;budget=33".to_owned();
        record.key = srra_explore::fnv1a_64(record.canonical.as_bytes());
        record.clock_period_ns = f64::NAN;
        let mut binary = crate::Connection::connect_binary(&addr).unwrap();
        match binary.put(std::slice::from_ref(&record)) {
            Err(crate::ClientError::Server(message)) => {
                assert!(message.contains(&record.canonical), "{message}");
            }
            other => panic!("expected a server error, got {other:?}"),
        }
        assert_eq!(binary.get(&record.canonical).unwrap(), None);
        connection.shutdown().unwrap();
        handle.join().unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn server_binds_an_ephemeral_port_and_shuts_down() {
        let dir = std::env::temp_dir().join(format!(
            "srra-serve-unit-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let server = Server::bind(&ServerConfig::ephemeral(&dir)).unwrap();
        let addr = server.local_addr();
        assert_ne!(addr.port(), 0);
        let handle = std::thread::spawn(move || server.run().unwrap());

        let mut stream = TcpStream::connect(addr).unwrap();
        stream
            .write_all(format!("{}\n", Request::Stats.render()).as_bytes())
            .unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let (Response::Stats(stats), _) = next_reply(&mut reader) else {
            panic!("expected stats");
        };
        assert_eq!(stats.shard_records.len(), 4);

        // Same connection: issue the shutdown.
        stream
            .write_all(format!("{}\n", Request::Shutdown.render()).as_bytes())
            .unwrap();
        assert_eq!(next_reply(&mut reader).0, Response::ShuttingDown);

        let report = handle.join().unwrap();
        assert!(report.stats.requests >= 2);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
