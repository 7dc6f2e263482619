//! The thread-pool TCP server: accepts line-delimited JSON queries and
//! answers them from the sharded store, evaluating misses on demand.
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
//! * each connection reuses one request-line buffer and one response buffer
//!   across its whole lifetime, renders every reply (`\n` included) with a
//!   single `write_all`, and defers the flush while another complete
//!   pipelined request is already sitting in the read buffer — so a client
//!   that writes N requests before reading gets its N replies in large
//!   batches instead of N round-trips;
//! * an in-flight table (mutex + condvar) guarantees each cache miss is
//!   evaluated *exactly once* even when many clients request the same point
//!   concurrently: the first claimant evaluates, everyone else blocks until
//!   the record lands in the store and then reads it back;
//! * `shutdown` flips an atomic flag and pokes the listener with a loopback
//!   connection so the blocking `accept` wakes up; in-flight requests are
//!   answered, then the read halves of all open sockets are shut down so
//!   workers blocked on idle keep-alive connections wake with EOF — draining
//!   never waits for clients (the cluster router keeps connections open
//!   indefinitely) to hang up first.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex, OnceLock};
use std::time::{Duration, Instant};

use srra_core::{AllocatorRegistry, CompiledKernel};
use srra_explore::{evaluate_point_timed, fnv1a_64, DesignPoint, PointRecord};
use srra_fpga::DeviceModel;
use srra_ir::examples::paper_example;
use srra_kernels::paper_suite;
use srra_obs::{
    epoch_us, next_span_id, Counter, Gauge, Histogram, Registry, SeriesBuffer, SeriesSample,
    SloEvaluator, SloRule, SnapshotDelta, Span,
};

use crate::binary::{
    decode_payload, encode_response_frame, holds_complete_request, read_frame, FrameError,
    BINARY_MAGIC,
};
use crate::protocol::{
    stamp_trace, Op, OpStats, PointOutcome, QueryPoint, Request, Response, ServerStats,
};
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
    /// Interval of the opt-in periodic stats-reporter thread in seconds; 0
    /// (the default) runs no reporter.  The reporter prints one-line
    /// progress summaries to stderr, event-manager style.
    pub report_interval_secs: u64,
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
    /// and 4 workers (no slow-query log, no reporter).
    pub fn ephemeral(cache_dir: impl Into<PathBuf>) -> Self {
        Self {
            addr: "127.0.0.1:0".to_owned(),
            cache_dir: cache_dir.into(),
            shards: 4,
            workers: 4,
            slow_query_us: 0,
            report_interval_secs: 0,
            idle_timeout_secs: 0,
            sample_interval_ms: 0,
            slos: Vec::new(),
        }
    }
}

/// The in-flight table: keys currently being evaluated by some worker, each
/// carrying the claimant request's trace id (when it had one) so waiters can
/// attribute their stall.
#[derive(Debug, Default)]
struct Inflight {
    keys: Mutex<HashMap<u64, Option<String>>>,
    done: Condvar,
}

impl Inflight {
    /// Claims `key` for evaluation on behalf of `trace`; `false` means
    /// another worker holds it.
    fn claim(&self, key: u64, trace: Option<&str>) -> bool {
        let mut keys = self
            .keys
            .lock()
            .expect("no worker panics while holding the in-flight lock");
        match keys.entry(key) {
            std::collections::hash_map::Entry::Occupied(_) => false,
            std::collections::hash_map::Entry::Vacant(slot) => {
                slot.insert(trace.map(str::to_owned));
                true
            }
        }
    }

    /// Releases `key` and wakes every waiter.
    fn release(&self, key: u64) {
        let mut keys = self
            .keys
            .lock()
            .expect("no worker panics while holding the in-flight lock");
        keys.remove(&key);
        drop(keys);
        self.done.notify_all();
    }

    /// Blocks until `key` is not claimed (returns immediately if it already
    /// is not), returning the trace id of the claimant that was waited on,
    /// if it had one.
    fn wait_released(&self, key: u64) -> Option<String> {
        let mut keys = self
            .keys
            .lock()
            .expect("no worker panics while holding the in-flight lock");
        let mut claimant = None;
        while let Some(trace) = keys.get(&key) {
            if claimant.is_none() {
                claimant.clone_from(trace);
            }
            keys = self
                .done
                .wait(keys)
                .expect("no worker panics while holding the in-flight lock");
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
    /// Requests that arrived as binary frames.
    codec_binary: Arc<Counter>,
    /// Requests that arrived as JSON lines.
    codec_json: Arc<Counter>,
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
            codec_binary: registry.counter("serve_codec_binary_total"),
            codec_json: registry.counter("serve_codec_json_total"),
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
    /// down each socket's *read* half: workers blocked in `read_line` on an
    /// idle keep-alive connection wake with EOF (pending replies can still
    /// be written), so draining never waits on clients that simply keep
    /// their connection open — the cluster router does exactly that.
    open_connections: Mutex<HashMap<u64, TcpStream>>,
    next_connection_id: AtomicU64,
}

impl ServerState {
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
fn resolve(point: &QueryPoint) -> Result<DesignPoint, String> {
    let allocator = AllocatorRegistry::global()
        .get(&point.algorithm)
        .ok_or_else(|| format!("unknown algorithm `{}`", point.algorithm))?;
    Ok(DesignPoint {
        kernel_index: 0, // Unused by `evaluate_point`; the kernel is passed directly.
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
/// Returns a user-facing message for an unknown algorithm or device (kernel
/// names pass through verbatim; an unknown kernel simply misses).
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
    report_interval: Duration,
    sample_interval: Duration,
}

impl Server {
    /// Binds the listener and opens the sharded store.
    ///
    /// # Errors
    ///
    /// Socket errors ([`ServeError::Io`]) or store errors
    /// ([`ServeError::Shard`], including the directory lock).
    pub fn bind(config: &ServerConfig) -> Result<Self, ServeError> {
        let store = ShardedStore::open(&config.cache_dir, config.shards)?;
        let listener = TcpListener::bind(&config.addr)?;
        let local_addr = listener.local_addr()?;
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
        let server = Self {
            listener,
            local_addr,
            state: ServerState {
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
            },
            workers: config.workers.max(1),
            report_interval: Duration::from_secs(config.report_interval_secs),
            sample_interval: Duration::from_millis(config.sample_interval_ms),
        };
        if !server.sample_interval.is_zero() {
            // The t0 baseline: without it, traffic served before the
            // sampler's first tick would fall into no window delta.
            server.state.series.record(merged_snapshot(&server.state));
        }
        Ok(server)
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
            report_interval,
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
            if !report_interval.is_zero() {
                scope.spawn(move || run_reporter(state_ref, report_interval));
            }
            if !sample_interval.is_zero() {
                scope.spawn(move || run_sampler(state_ref, sample_interval));
            }
            // The accept loop runs inside a closure so *every* exit — clean
            // shutdown, worker-channel teardown, fatal listener error — falls
            // through to the shutdown-flag store below; the reporter thread
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

/// The opt-in periodic stats reporter: one summary line to stderr every
/// `interval`, sleeping in short slices so shutdown is never delayed by a
/// long interval.
///
/// Each line reports *per-interval* figures — request rate, hit ratio and
/// latency quantiles of the traffic since the previous line, computed with
/// the same [`SnapshotDelta`] math the `series` op serves — so a burst or a
/// regression shows up in the interval it happened instead of being diluted
/// into lifetime totals.
fn run_reporter(state: &ServerState, interval: Duration) {
    let mut next = Instant::now() + interval;
    let mut previous = SeriesSample {
        at_us: srra_obs::now_us(),
        metrics: merged_snapshot(state),
    };
    while !state.shutdown.load(Ordering::SeqCst) {
        std::thread::sleep(Duration::from_millis(50));
        if Instant::now() < next {
            continue;
        }
        next += interval;
        let current = SeriesSample {
            at_us: srra_obs::now_us(),
            metrics: merged_snapshot(state),
        };
        let delta = SnapshotDelta::between(&previous, &current);
        let rate = |name: &str| delta.rate(name).unwrap_or(0.0);
        let hits = delta.diff.counter("serve_hits_total").unwrap_or(0);
        let misses = delta.diff.counter("serve_misses_total").unwrap_or(0);
        let looked_up = hits + misses;
        let hit_pct = if looked_up == 0 {
            100.0
        } else {
            hits as f64 * 100.0 / looked_up as f64
        };
        eprintln!(
            "srra-serve report: uptime_secs={} req_s={:.1} hit_pct={:.1} evaluated_s={:.1} open_connections={} binary_s={:.1} json_s={:.1} get_p50_us={} get_p99_us={}",
            state.started.elapsed().as_secs(),
            rate("serve_requests_total"),
            hit_pct,
            rate("serve_evaluated_total"),
            state.counters.open_connections.get(),
            rate("serve_codec_binary_total"),
            rate("serve_codec_json_total"),
            delta.quantile("serve_op_get_latency_us", 0.50).unwrap_or(0),
            delta.quantile("serve_op_get_latency_us", 0.99).unwrap_or(0),
        );
        previous = current;
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

/// Serves one connection: any number of request lines, one response line each,
/// in strict request order.
///
/// The loop owns two scratch buffers for its whole lifetime — the request
/// line and the rendered response — so a keep-alive connection stops
/// allocating once the buffers have grown to the workload's line sizes.  Each
/// response (trailing `\n` included) goes out with one `write_all`; the
/// `BufWriter` flush is skipped while the read buffer already holds another
/// complete request line, which batches pipelined replies into large writes.
fn serve_connection(state: &ServerState, stream: TcpStream, local_addr: SocketAddr) {
    // Register before serving so a graceful shutdown can wake this
    // connection's blocking read; deregister on the way out.  A connection
    // that cannot be registered (fd exhaustion on the try_clone) is refused
    // outright — serving it unregistered could leave a graceful shutdown
    // waiting forever on its read, and the client's reconnect-and-retry
    // turns the refusal into one clean retry on a fresh socket.
    let Some(id) = state.register_connection(&stream) else {
        return;
    };
    serve_connection_requests(state, stream, local_addr);
    state.deregister_connection(id);
}

/// The request/response loop of [`serve_connection`].
///
/// The codec is negotiated per request by sniffing the first buffered byte:
/// [`BINARY_MAGIC`] selects the binary frame codec, anything else the JSON
/// line codec — so one connection may freely interleave both, and existing
/// JSON clients keep working unchanged.
fn serve_connection_requests(state: &ServerState, stream: TcpStream, local_addr: SocketAddr) {
    // Replies are latency-sensitive single lines: never let Nagle hold them.
    let _ = stream.set_nodelay(true);
    // The idle-connection deadline rides on a plain read timeout: a client
    // that stays silent past it wakes the blocked codec sniff below with
    // `WouldBlock`/`TimedOut` and the connection is reaped.
    if !state.idle_timeout.is_zero() {
        let _ = stream.set_read_timeout(Some(state.idle_timeout));
    }
    let Ok(write_half) = stream.try_clone() else {
        return;
    };
    let mut writer = std::io::BufWriter::new(write_half);
    let mut reader = BufReader::new(stream);
    let mut line = String::with_capacity(256);
    let mut rendered = String::with_capacity(256);
    let mut payload: Vec<u8> = Vec::with_capacity(256);
    let mut frame: Vec<u8> = Vec::with_capacity(256);
    loop {
        // Sniff the codec of the next request off the first buffered byte
        // (this is also where an idle keep-alive connection blocks).
        let binary = match reader.fill_buf() {
            Ok([]) => return, // Clean EOF.
            Ok(buffered) => buffered[0] == BINARY_MAGIC,
            // The idle deadline fired while waiting for the next request:
            // reap the connection.  (Timeouts surface as `WouldBlock` on Unix
            // and `TimedOut` on Windows.)
            Err(err)
                if matches!(
                    err.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                state.counters.idle_reaped.inc();
                return;
            }
            Err(_) => return,
        };
        let started;
        let parse_elapsed;
        let parsed: Result<(Request, Option<String>), String>;
        if binary {
            match read_frame(&mut reader, &mut payload) {
                Ok(()) => {}
                Err(FrameError::BadLength(len)) => {
                    // The next frame boundary is unknowable: answer once with
                    // a binary error frame, then close the connection.
                    state.counters.requests.inc();
                    state.counters.codec_binary.inc();
                    state.counters.record_op(Op::Invalid, Duration::ZERO, None);
                    frame.clear();
                    let reply = Response::Error {
                        message: FrameError::BadLength(len).to_string(),
                    };
                    if encode_response_frame(&mut frame, None, &reply).is_ok() {
                        let _ = writer.write_all(&frame);
                        let _ = writer.flush();
                    }
                    return;
                }
                // Peer vanished mid-frame; `BadMagic` is unreachable after
                // the sniff above.
                Err(FrameError::Io(_) | FrameError::BadMagic(_)) => return,
            }
            started = Instant::now();
            state.counters.requests.inc();
            state.counters.codec_binary.inc();
            // A payload that fails to decode is recoverable: the frame
            // boundary was already consumed, so answer the error and keep
            // the connection (no desync).
            parsed = decode_payload::<Request>(&payload).map_err(|err| err.to_string());
            parse_elapsed = started.elapsed();
            state.counters.codec_parse_us.record(parse_elapsed);
        } else {
            line.clear();
            match reader.read_line(&mut line) {
                Ok(0) => return, // Clean EOF.
                Ok(_) => {}
                Err(_) => return, // Peer vanished mid-line.
            }
            // Strip the line terminator (read_line keeps it).
            let request_line = line.trim_end_matches(['\n', '\r']);
            if request_line.trim().is_empty() {
                continue;
            }
            started = Instant::now();
            state.counters.requests.inc();
            state.counters.codec_json.inc();
            parsed = Request::parse_with_trace(request_line);
            parse_elapsed = started.elapsed();
            state.counters.codec_parse_us.record(parse_elapsed);
        }
        let trace = match &parsed {
            Ok((_, trace)) => {
                if trace.is_some() {
                    state.counters.traced_requests.inc();
                }
                trace.clone()
            }
            Err(_) => None,
        };
        let trace_ref = trace.as_deref();
        // Traced requests accumulate a span tree; untraced requests never
        // allocate a collector.
        let mut collector = trace_ref.map(SpanCollector::new);
        if let Some(spans) = collector.as_mut() {
            spans
                .child("parse", started, parse_elapsed)
                .annotations
                .push((
                    "codec".to_owned(),
                    if binary { "binary" } else { "json" }.to_owned(),
                ));
        }
        let (response, op) = match parsed {
            Err(message) => (Response::Error { message }, Op::Invalid),
            Ok((request, _)) => (
                handle(state, &request, trace_ref, collector.as_mut()),
                request.op(),
            ),
        };
        let render_started = Instant::now();
        let reply_bytes: &[u8] = if binary {
            // Echo the request's trace id on the reply frame.
            frame.clear();
            if encode_response_frame(&mut frame, trace_ref, &response).is_err() {
                // Unreachable for server-built replies under the frame cap,
                // but never leave a binary client without its reply frame.
                frame.clear();
                let _ = encode_response_frame(
                    &mut frame,
                    None,
                    &Response::Error {
                        message: "reply exceeded the binary frame cap".to_owned(),
                    },
                );
            }
            &frame
        } else {
            rendered.clear();
            response.render_into(&mut rendered);
            // Echo the request's trace id in the reply, rendered last so
            // clients strip it the same cheap way the server did.
            if let Some(trace) = trace_ref {
                stamp_trace(&mut rendered, trace);
            }
            rendered.push('\n');
            rendered.as_bytes()
        };
        let render_elapsed = render_started.elapsed();
        state.counters.codec_render_us.record(render_elapsed);
        // Account the request and record its span tree BEFORE the reply
        // leaves: a client holding the reply must find the trace queryable,
        // so the spans have to reach the flight recorder first.  `elapsed`
        // therefore covers parse through render, not the socket write.
        let elapsed = started.elapsed();
        state.counters.record_op(op, elapsed, trace_ref);
        let slow =
            state.slow_query_us > 0 && elapsed.as_micros() >= u128::from(state.slow_query_us);
        let mut span_note = String::new();
        if let Some(mut spans) = collector.take() {
            spans.child("render", render_started, render_elapsed);
            if slow {
                span_note = spans.slow_note(2);
            }
            let trace_id = spans.trace_id.clone();
            state
                .registry
                .traces()
                .record_all(spans.finish(op.name(), started, elapsed));
            if slow {
                // Pin after recording: the pin copies this trace's spans out
                // of the ring into the retained set.
                state.registry.traces().pin(&trace_id);
                state.counters.pinned_traces.inc();
            }
        }
        if slow {
            state.counters.slow_queries.inc();
            if span_note.is_empty() {
                eprintln!(
                    "srra-serve slow-query: op={} elapsed_us={} trace={}",
                    op.name(),
                    elapsed.as_micros(),
                    trace_ref.unwrap_or("-"),
                );
            } else {
                eprintln!(
                    "srra-serve slow-query: op={} elapsed_us={} trace={} spans={span_note}",
                    op.name(),
                    elapsed.as_micros(),
                    trace_ref.unwrap_or("-"),
                );
            }
        }
        let mut sent = writer.write_all(reply_bytes);
        // Defer the flush only while the read buffer still holds a complete
        // request of either codec — one guaranteed to produce another
        // response before this worker can block on the socket again, so the
        // reply bytes ride along with that response's flush.  A buffered
        // blank line or partial frame alone produces no response, so
        // deferring on one would strand this reply in the BufWriter.
        if sent.is_ok() && !holds_complete_request(reader.buffer()) {
            sent = writer.flush();
        }
        if op == Op::Shutdown {
            let _ = writer.flush();
            state.shutdown.store(true, Ordering::SeqCst);
            // Poke the accept loop awake; it re-checks the flag and exits.
            let _ = TcpStream::connect(local_addr);
            // Wake workers blocked on idle keep-alive connections: their
            // sockets' read halves are shut down, read_line returns EOF and
            // the drain completes without waiting for clients to hang up.
            state.close_idle_connections();
            return;
        }
        if sent.is_err() {
            return;
        }
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
        Request::Explore { points } => handle_explore(state, points, trace, collector),
        Request::MultiExplore { points } => handle_mexplore(state, points, trace, collector),
        Request::Put { records } => handle_put(state, records),
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
/// whose canonical is already present.  The replication tee of the cluster
/// router lands here, so the records must be byte-identical to what the
/// evaluating node stored — [`PointRecord`]'s JSONL round trip guarantees it.
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
    mut collector: Option<&mut SpanCollector>,
) -> Response {
    let mut outcomes = Vec::with_capacity(points.len());
    let mut hits = 0;
    let mut evaluated = 0;
    for point in points {
        match answer_point(state, point, trace, collector.as_deref_mut()) {
            Ok((record, was_hit)) => {
                if was_hit {
                    hits += 1;
                } else {
                    evaluated += 1;
                }
                outcomes.push(PointOutcome::Answered {
                    record,
                    hit: was_hit,
                });
            }
            Err(error) => outcomes.push(PointOutcome::Failed { error }),
        }
    }
    Response::MultiExplored {
        outcomes,
        hits,
        evaluated,
    }
}

/// Answers an `explore` batch: hits from the shards, misses evaluated exactly
/// once (across all concurrent clients) and written back.
fn handle_explore(
    state: &ServerState,
    points: &[QueryPoint],
    trace: Option<&str>,
    mut collector: Option<&mut SpanCollector>,
) -> Response {
    let mut records = Vec::with_capacity(points.len());
    let mut hits = 0;
    let mut evaluated = 0;
    for point in points {
        match answer_point(state, point, trace, collector.as_deref_mut()) {
            Ok((record, was_hit)) => {
                if was_hit {
                    hits += 1;
                } else {
                    evaluated += 1;
                }
                records.push(record);
            }
            Err(message) => return Response::Error { message },
        }
    }
    Response::Explored {
        records,
        hits,
        evaluated,
    }
}

/// Resolves and answers one point; the boolean is `true` when the record came
/// from the store without this request evaluating it.
fn answer_point(
    state: &ServerState,
    point: &QueryPoint,
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
        if state.inflight.claim(key, trace) {
            state.counters.inflight_claims.inc();
            if let Some(spans) = collector.as_deref_mut() {
                spans.child("inflight.claim", claim_started, claim_started.elapsed());
            }
            let outcome = evaluate_claimed(
                state,
                kernel,
                &design_point,
                key,
                &canonical,
                trace,
                collector.as_deref_mut(),
            );
            state.inflight.release(key);
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
/// miss and its claim succeeding — then evaluates.  Without the re-check a
/// preempted worker could evaluate a point twice, breaking the exactly-once
/// guarantee.  The caller releases the claim.
fn evaluate_claimed(
    state: &ServerState,
    kernel: &CompiledKernel,
    design_point: &DesignPoint,
    key: u64,
    canonical: &str,
    trace: Option<&str>,
    collector: Option<&mut SpanCollector>,
) -> Result<(PointRecord, bool), String> {
    match state.store.get_record(key, canonical) {
        Ok(Some(record)) => {
            state.counters.hits.inc();
            Ok((record, false))
        }
        Ok(None) => {
            let eval_started = Instant::now();
            let (record, timings) = evaluate_point_timed(kernel, design_point);
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
                let dur = Duration::from_micros(timings.allocation_us);
                spans.child("engine.allocation", at, dur);
                at += dur;
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
        let mut reply = String::new();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        reader.read_line(&mut reply).unwrap();
        let Response::Stats(stats) = Response::parse(reply.trim()).unwrap() else {
            panic!("expected stats, got {reply}");
        };
        assert_eq!(stats.shard_records.len(), 4);

        // Same connection: issue the shutdown.
        stream
            .write_all(format!("{}\n", Request::Shutdown.render()).as_bytes())
            .unwrap();
        let mut ack = String::new();
        reader.read_line(&mut ack).unwrap();
        assert_eq!(Response::parse(ack.trim()).unwrap(), Response::ShuttingDown);

        let report = handle.join().unwrap();
        assert!(report.stats.requests >= 2);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
