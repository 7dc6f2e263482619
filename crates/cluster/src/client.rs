//! The cluster client: routes batches over the ring, fans them out as
//! pipelined batched wire ops, merges replies back into request order, and
//! keeps per-node health so a dead node degrades service instead of failing
//! it.

use std::collections::BTreeMap;
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use srra_explore::{fnv1a_64, PointRecord};
use srra_obs::{Counter, Gauge, MetricsSnapshot, Registry, SnapshotDelta, Span};
use srra_serve::{
    canonical_for, valid_trace_id, ClientError, Connection, PointOutcome, QueryPoint, ServerStats,
};

use crate::ring::Ring;

/// First back-off after a node failure; doubles per consecutive failure.
const BACKOFF_INITIAL: Duration = Duration::from_millis(50);

/// Ceiling of the reconnect back-off.
const BACKOFF_MAX: Duration = Duration::from_secs(2);

/// Handles into [`Registry::global`] for the cluster-side instruments,
/// resolved once — health transitions and failover requeues record directly.
pub(crate) struct ClusterCounters {
    node_failures: Arc<Counter>,
    node_recoveries: Arc<Counter>,
    backoff_fastfails: Arc<Counter>,
    failover_requeues: Arc<Counter>,
    routed: Arc<Counter>,
    tee_stored: Arc<Counter>,
    tee_failures: Arc<Counter>,
    timeouts: Arc<Counter>,
    read_repairs: Arc<Counter>,
    pub(crate) repair_records: Arc<Counter>,
    /// Nodes currently inside a back-off window (set on the up→down
    /// transition, cleared when the window is forgotten or the node
    /// recovers) — the down/up column of `srra cluster top`.
    nodes_down: Arc<Gauge>,
}

pub(crate) fn cluster_counters() -> &'static ClusterCounters {
    static COUNTERS: OnceLock<ClusterCounters> = OnceLock::new();
    COUNTERS.get_or_init(|| {
        let registry = Registry::global();
        ClusterCounters {
            node_failures: registry.counter("cluster_node_failures_total"),
            node_recoveries: registry.counter("cluster_node_recoveries_total"),
            backoff_fastfails: registry.counter("cluster_backoff_fastfails_total"),
            failover_requeues: registry.counter("cluster_failover_requeues_total"),
            routed: registry.counter("cluster_requests_routed_total"),
            tee_stored: registry.counter("cluster_tee_stored_total"),
            tee_failures: registry.counter("cluster_tee_failures_total"),
            timeouts: registry.counter("cluster_timeouts_total"),
            read_repairs: registry.counter("cluster_read_repairs_total"),
            repair_records: registry.counter("cluster_repair_records_total"),
            nodes_down: registry.gauge("cluster_nodes_down"),
        }
    })
}

/// Errors of the cluster client.
#[derive(Debug)]
pub enum ClusterError {
    /// The cluster configuration is unusable (empty node list, replicas out
    /// of range, no reachable node at connect time).
    Config(String),
    /// A node answered with a protocol- or server-level error (not an I/O
    /// failure — those trigger failover instead).
    Node {
        /// The node that answered.
        addr: String,
        /// The underlying client error.
        source: ClientError,
    },
    /// Every replica owner of a key is down.
    Unavailable {
        /// What could not be served.
        what: String,
    },
}

impl std::fmt::Display for ClusterError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClusterError::Config(message) => write!(f, "cluster config error: {message}"),
            ClusterError::Node { addr, source } => write!(f, "cluster node {addr}: {source}"),
            ClusterError::Unavailable { what } => {
                write!(f, "cluster unavailable: {what}")
            }
        }
    }
}

impl std::error::Error for ClusterError {}

/// Whether a node failure is an I/O-level one (connection refused/reset,
/// EOF, ...) — the kind that marks the node down and triggers failover.
/// Server-side and protocol errors are *answers* and propagate instead.
fn is_io(err: &ClientError) -> bool {
    matches!(err, ClientError::Io(_))
}

/// Counts deadline expiries.  A timeout is handled exactly like a reset (the
/// node is marked down and the work fails over) but gets its own series: a
/// fleet timing out looks very different on a dashboard from a fleet
/// refusing connections.
fn note_timeout(err: &ClientError) {
    if let ClientError::Io(io) = err {
        if matches!(
            io.kind(),
            std::io::ErrorKind::TimedOut | std::io::ErrorKind::WouldBlock
        ) {
            cluster_counters().timeouts.inc();
        }
    }
}

/// Configuration of a [`ClusterClient`].
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Node addresses (`host:port`), order-insensitive for placement but
    /// reported in this order by [`ClusterClient::stats`].
    pub nodes: Vec<String>,
    /// Ring replication factor: every key lives on its owner plus the next
    /// `replicas - 1` distinct ring successors.  `1` disables replication.
    pub replicas: usize,
    /// Virtual nodes per physical node.
    pub vnodes: usize,
    /// Speak the length-prefixed binary wire codec to every node instead of
    /// JSON lines (the nodes auto-detect per frame, so a mixed fleet of
    /// binary and JSON clients is fine).
    pub binary: bool,
    /// I/O deadline applied to every node dial, read and write.  A node that
    /// stays silent past the deadline counts as failed exactly like one that
    /// resets the connection: it is marked down and its share of the work
    /// fails over to the next replica successor, so a partition costs a
    /// bounded wait instead of a hang.  `None` disables deadlines (a hung
    /// node then blocks the call indefinitely).
    pub timeout: Option<Duration>,
}

impl ClusterConfig {
    /// The default per-call I/O deadline.
    pub const DEFAULT_TIMEOUT: Duration = Duration::from_secs(2);

    /// A configuration over `nodes` with no replication,
    /// [`Ring::DEFAULT_VNODES`] virtual nodes and the
    /// [default I/O deadline](Self::DEFAULT_TIMEOUT).
    pub fn new<I, S>(nodes: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        Self {
            nodes: nodes.into_iter().map(Into::into).collect(),
            replicas: 1,
            vnodes: Ring::DEFAULT_VNODES,
            binary: false,
            timeout: Some(Self::DEFAULT_TIMEOUT),
        }
    }

    /// Sets the replication factor.
    #[must_use]
    pub fn with_replicas(mut self, replicas: usize) -> Self {
        self.replicas = replicas;
        self
    }

    /// Sets the virtual-node count.
    #[must_use]
    pub fn with_vnodes(mut self, vnodes: usize) -> Self {
        self.vnodes = vnodes;
        self
    }

    /// Selects the binary wire codec for every node connection (including
    /// the replication tees).
    #[must_use]
    pub fn with_binary(mut self, binary: bool) -> Self {
        self.binary = binary;
        self
    }

    /// Sets the per-call I/O deadline; `None` disables it.
    #[must_use]
    pub fn with_timeout(mut self, timeout: Option<Duration>) -> Self {
        self.timeout = timeout;
        self
    }
}

/// One node's client-side state: the cached keep-alive connection and the
/// health bookkeeping.
#[derive(Debug)]
pub(crate) struct Node {
    pub(crate) addr: String,
    /// Dial connections in binary-codec mode.
    binary: bool,
    /// I/O deadline applied to dials, reads and writes.
    timeout: Option<Duration>,
    /// Trace id stamped onto every request this node serves, when set.
    /// Survives reconnects: a fresh connection re-applies it before use, so
    /// one logical trace spans a node's sub-batches even across failures.
    trace: Option<String>,
    connection: Option<Connection>,
    /// `Some(instant)` while the node is marked down; no connect attempt is
    /// made before it.
    down_until: Option<Instant>,
    /// Next back-off period (doubles per consecutive failure).
    backoff: Duration,
    /// Requests this client successfully routed to the node.
    routed: u64,
}

impl Node {
    fn new(addr: String, binary: bool, timeout: Option<Duration>) -> Self {
        Self {
            addr,
            binary,
            timeout,
            trace: None,
            connection: None,
            down_until: None,
            backoff: BACKOFF_INITIAL,
            routed: 0,
        }
    }

    /// Whether the node is currently marked down (back-off window open).
    fn is_down(&self) -> bool {
        self.down_until.is_some_and(|until| Instant::now() < until)
    }

    /// Marks the node down: drops the connection and opens (and doubles) the
    /// back-off window.
    fn mark_down(&mut self) {
        cluster_counters().node_failures.inc();
        if self.down_until.is_none() {
            cluster_counters().nodes_down.inc();
        }
        self.connection = None;
        self.down_until = Some(Instant::now() + self.backoff);
        self.backoff = (self.backoff * 2).min(BACKOFF_MAX);
    }

    /// Marks the node healthy and resets the back-off.
    fn mark_up(&mut self) {
        if self.down_until.take().is_some() {
            cluster_counters().node_recoveries.inc();
            cluster_counters().nodes_down.dec();
        }
        self.backoff = BACKOFF_INITIAL;
    }

    /// Forgets the back-off window without counting a recovery — the probe
    /// and repair paths dial through remembered down-state deliberately, and
    /// the call's outcome re-marks the node either way.  Keeps the
    /// `cluster_nodes_down` gauge honest where a bare `down_until = None`
    /// would leak a decrement.
    pub(crate) fn forget_down_window(&mut self) {
        if self.down_until.take().is_some() {
            cluster_counters().nodes_down.dec();
        }
    }

    /// The node's keep-alive connection, dialling if necessary.  Fails fast
    /// (without touching the network) while the back-off window is open.
    fn ensure_connection(&mut self) -> Result<&mut Connection, ClientError> {
        if self.is_down() {
            cluster_counters().backoff_fastfails.inc();
            return Err(ClientError::Io(std::io::Error::new(
                std::io::ErrorKind::ConnectionRefused,
                format!(
                    "node {} is marked down (reconnect back-off open)",
                    self.addr
                ),
            )));
        }
        if self.connection.is_none() {
            match Connection::connect_with_codec(&self.addr, self.binary, self.timeout) {
                Ok(mut connection) => {
                    connection
                        .set_trace(self.trace.as_deref())
                        .expect("trace id validated by ClusterClient::set_trace");
                    self.connection = Some(connection);
                }
                Err(err) => {
                    if is_io(&err) {
                        note_timeout(&err);
                        self.mark_down();
                    }
                    return Err(err);
                }
            }
        }
        Ok(self.connection.as_mut().expect("connection just ensured"))
    }

    /// Runs one wire call against the node, maintaining the health state: an
    /// I/O failure (including a deadline expiry) marks the node down (the
    /// `Connection` has already retried once internally for stale-socket
    /// cases), success marks it up.
    pub(crate) fn call<T>(
        &mut self,
        op: impl FnOnce(&mut Connection) -> Result<T, ClientError>,
    ) -> Result<T, ClientError> {
        let connection = self.ensure_connection()?;
        match op(connection) {
            Ok(value) => {
                self.routed += 1;
                cluster_counters().routed.inc();
                self.mark_up();
                Ok(value)
            }
            Err(err) => {
                if is_io(&err) {
                    note_timeout(&err);
                    self.mark_down();
                }
                Err(err)
            }
        }
    }
}

/// One node's entry in [`ClusterStats`].
#[derive(Debug, Clone)]
pub struct NodeStats {
    /// The node address.
    pub addr: String,
    /// Whether the node answered the stats probe.
    pub up: bool,
    /// Requests this client routed to the node (client-side counter).
    pub routed: u64,
    /// The node's own server statistics; `None` when unreachable.
    pub stats: Option<ServerStats>,
}

/// Aggregated statistics of the whole cluster, as seen by one client.
#[derive(Debug, Clone)]
pub struct ClusterStats {
    /// Per-node statistics, in configuration order.
    pub nodes: Vec<NodeStats>,
    /// The configured replication factor.
    pub replicas: usize,
}

impl ClusterStats {
    /// Nodes that answered the probe.
    pub fn nodes_up(&self) -> usize {
        self.nodes.iter().filter(|node| node.up).count()
    }

    /// Total requests served across reachable nodes.
    pub fn total_requests(&self) -> u64 {
        self.sum(|stats| stats.requests)
    }

    /// Total records stored across reachable nodes (with replication, a
    /// record counts once per replica holding it).
    pub fn total_records(&self) -> usize {
        self.nodes
            .iter()
            .filter_map(|node| node.stats.as_ref())
            .map(ServerStats::records)
            .sum()
    }

    /// Total points evaluated across reachable nodes.
    pub fn total_evaluated(&self) -> u64 {
        self.sum(|stats| stats.evaluated)
    }

    fn sum(&self, field: impl Fn(&ServerStats) -> u64) -> u64 {
        self.nodes
            .iter()
            .filter_map(|node| node.stats.as_ref())
            .map(field)
            .sum()
    }
}

/// The cluster-wide telemetry gathered by [`ClusterClient::metrics`].
#[derive(Debug, Clone)]
pub struct ClusterMetrics {
    /// Per-node metrics snapshots, in configuration order; `None` when the
    /// node did not answer the scrape.
    pub nodes: Vec<(String, Option<MetricsSnapshot>)>,
    /// All reachable nodes' snapshots merged (counters summed, histograms
    /// merged bucket-wise).
    pub aggregate: MetricsSnapshot,
    /// This process's own client-side telemetry (`client_*` / `cluster_*`
    /// instruments).
    pub client: MetricsSnapshot,
}

impl ClusterMetrics {
    /// Nodes that answered the scrape.
    pub fn nodes_up(&self) -> usize {
        self.nodes
            .iter()
            .filter(|(_, snapshot)| snapshot.is_some())
            .count()
    }
}

/// One trace's spans gathered from every node by
/// [`ClusterClient::trace`] — a cluster-wide request waterfall.
#[derive(Debug, Clone)]
pub struct ClusterTrace {
    /// Per-node span lists, in configuration order; `None` when the node did
    /// not answer the scrape (a node with no spans for the id answers
    /// `Some` of an empty list).
    pub nodes: Vec<(String, Option<Vec<Span>>)>,
    /// All reachable nodes' spans merged into one tree, deduplicated by span
    /// id and ordered by start time.  Span ids are seeded per process, so
    /// different nodes' spans interleave without colliding.
    pub merged: Vec<Span>,
}

impl ClusterTrace {
    /// Nodes that answered the scrape.
    pub fn nodes_up(&self) -> usize {
        self.nodes
            .iter()
            .filter(|(_, spans)| spans.is_some())
            .count()
    }
}

/// The result of one cluster [`explore`](ClusterClient::explore) call.
#[derive(Debug, Clone)]
pub struct ClusterExploreReply {
    /// One outcome per requested point, in request order.
    pub outcomes: Vec<PointOutcome>,
    /// Points answered from some node's shards.
    pub hits: u64,
    /// Points evaluated on demand (each on exactly one node).
    pub evaluated: u64,
    /// Freshly evaluated records teed to replica successors and stored there
    /// for the first time (0 unless `replicas > 1`).
    pub replicated: u64,
}

/// A client over a cluster of `srra serve` nodes.
///
/// Routing is deterministic: the [`Ring`] places every canonical key on one
/// owner node (plus `replicas - 1` successors).  Batches are grouped per
/// owning node, fanned out as the batched wire ops (`mget` / `mexplore`) over
/// per-node keep-alive [`Connection`]s, and the per-point results merged back
/// into request order.  A node that fails at the I/O level is marked down
/// (exponential-backoff reconnect) and its share of the batch fails over to
/// the next replica successor — with `replicas == 1` there is nowhere to fail
/// over to, and the call reports [`ClusterError::Unavailable`].
#[derive(Debug)]
pub struct ClusterClient {
    pub(crate) ring: Ring,
    pub(crate) nodes: Vec<Node>,
    pub(crate) replicas: usize,
    pub(crate) vnodes: usize,
    pub(crate) binary: bool,
    pub(crate) timeout: Option<Duration>,
}

impl ClusterClient {
    /// Builds the ring and probes every node once with `ping`, marking
    /// unreachable nodes down.  At least one node must answer.
    ///
    /// # Errors
    ///
    /// [`ClusterError::Config`] for an unusable configuration or when no
    /// node is reachable.
    pub fn connect(config: &ClusterConfig) -> Result<Self, ClusterError> {
        let ring =
            Ring::new(config.nodes.iter().cloned(), config.vnodes).map_err(ClusterError::Config)?;
        if config.replicas == 0 || config.replicas > ring.len() {
            return Err(ClusterError::Config(format!(
                "replicas must be between 1 and the node count ({}), got {}",
                ring.len(),
                config.replicas
            )));
        }
        let mut client = Self {
            nodes: ring
                .nodes()
                .iter()
                .map(|addr| Node::new(addr.clone(), config.binary, config.timeout))
                .collect(),
            ring,
            replicas: config.replicas,
            vnodes: config.vnodes,
            binary: config.binary,
            timeout: config.timeout,
        };
        let up = client.ping_all().into_iter().filter(|(_, up)| *up).count();
        if up == 0 {
            return Err(ClusterError::Config(format!(
                "no reachable node among: {}",
                client
                    .nodes
                    .iter()
                    .map(|node| node.addr.as_str())
                    .collect::<Vec<_>>()
                    .join(", ")
            )));
        }
        Ok(client)
    }

    /// The placement ring.
    pub fn ring(&self) -> &Ring {
        &self.ring
    }

    /// The configured replication factor.
    pub fn replicas(&self) -> usize {
        self.replicas
    }

    /// Sets (or clears, with `None`) the trace id stamped onto every request
    /// this client routes, across all nodes.  One cluster call fans out as
    /// per-node sub-batches; stamping them all with the same id is what
    /// lets [`trace`](ClusterClient::trace) reassemble the cluster-wide
    /// waterfall afterwards.  Applied to live connections immediately and
    /// re-applied whenever a node reconnects.
    ///
    /// # Errors
    ///
    /// [`ClusterError::Config`] for ids that are empty, longer than
    /// [`srra_serve::TRACE_MAX_LEN`] bytes, or contain characters outside
    /// `[A-Za-z0-9._-]`.
    pub fn set_trace(&mut self, trace: Option<&str>) -> Result<(), ClusterError> {
        if let Some(id) = trace {
            if !valid_trace_id(id) {
                return Err(ClusterError::Config(format!(
                    "invalid trace id `{id}`: want 1-64 bytes of [A-Za-z0-9._-]"
                )));
            }
        }
        for node in &mut self.nodes {
            node.trace = trace.map(str::to_owned);
            if let Some(connection) = &mut node.connection {
                connection
                    .set_trace(trace)
                    .expect("trace id validated above");
            }
        }
        Ok(())
    }

    /// Scrapes every node's flight recorder for `id` and merges the answers
    /// into one cluster-wide span tree (deduplicated by span id, ordered by
    /// start time).  Unreachable nodes report `None` instead of failing the
    /// call; a node that retains nothing for the id reports an empty list.
    pub fn trace(&mut self, id: &str) -> ClusterTrace {
        let nodes: Vec<(String, Option<Vec<Span>>)> = self
            .nodes
            .iter_mut()
            .map(|node| {
                let spans = node.call(|connection| connection.trace_spans(id)).ok();
                (node.addr.clone(), spans)
            })
            .collect();
        let mut merged: Vec<Span> = Vec::new();
        let mut seen = std::collections::BTreeSet::new();
        for (_, spans) in &nodes {
            for span in spans.iter().flatten() {
                if seen.insert(span.span_id) {
                    merged.push(span.clone());
                }
            }
        }
        merged.sort_by_key(|span| (span.start_us, span.span_id));
        ClusterTrace { nodes, merged }
    }

    /// Probes every node with a `ping`; returns `(addr, reachable)` in
    /// configuration order.  A liveness probe must actually probe: each node
    /// is dialled even inside an open back-off window (remembered down-state
    /// would otherwise report `false` without touching the network, hiding a
    /// node that already recovered).  Nodes that fail the probe are marked
    /// down as usual.
    pub fn ping_all(&mut self) -> Vec<(String, bool)> {
        self.nodes
            .iter_mut()
            .map(|node| {
                node.forget_down_window();
                let up = node.call(Connection::ping).is_ok();
                (node.addr.clone(), up)
            })
            .collect()
    }

    /// The shared routing/failover loop of [`mget`](ClusterClient::mget) and
    /// [`explore`](ClusterClient::explore).
    ///
    /// `pending` holds `(item index, owner-list attempt)` pairs;
    /// `canonicals[item]` names item's key.  Each round groups the pending
    /// items by the replica owner at their current attempt and invokes
    /// `call` once per `(node, items)` group — `call` performs the wire op
    /// and merges the group's results into the caller's buffers.  A group
    /// whose call fails at the I/O level (the node is down) is re-queued
    /// against the next replica successor; a server/protocol error aborts
    /// with [`ClusterError::Node`]; an item that exhausts its owner list
    /// aborts with [`ClusterError::Unavailable`].
    fn route_with_failover<C>(
        &mut self,
        mut pending: Vec<(usize, usize)>,
        canonicals: &[String],
        mut call: C,
    ) -> Result<(), ClusterError>
    where
        C: FnMut(&mut Self, usize, &[(usize, usize)]) -> Result<(), ClientError>,
    {
        while !pending.is_empty() {
            let mut groups: BTreeMap<usize, Vec<(usize, usize)>> = BTreeMap::new();
            for (item, attempt) in pending.drain(..) {
                let key = fnv1a_64(canonicals[item].as_bytes());
                let owners = self.ring.owners(key, self.replicas);
                let Some(&node) = owners.get(attempt) else {
                    return Err(ClusterError::Unavailable {
                        what: format!(
                            "all {} replica owner(s) of `{}` are down",
                            owners.len(),
                            canonicals[item]
                        ),
                    });
                };
                groups.entry(node).or_default().push((item, attempt));
            }
            for (node, items) in groups {
                match call(self, node, &items) {
                    Ok(()) => {}
                    Err(err) if is_io(&err) => {
                        cluster_counters().failover_requeues.add(items.len() as u64);
                        pending.extend(items.iter().map(|&(item, attempt)| (item, attempt + 1)));
                    }
                    Err(err) => {
                        return Err(ClusterError::Node {
                            addr: self.nodes[node].addr.clone(),
                            source: err,
                        })
                    }
                }
            }
        }
        Ok(())
    }

    /// Looks one canonical string up; `None` is a cluster-wide miss.
    ///
    /// # Errors
    ///
    /// [`ClusterError::Unavailable`] when every replica owner is down, and
    /// node-level server/protocol errors.
    pub fn get(&mut self, canonical: &str) -> Result<Option<PointRecord>, ClusterError> {
        let mut records = self.mget(std::slice::from_ref(&canonical.to_owned()))?;
        Ok(records.pop().flatten())
    }

    /// Looks a batch of canonical strings up, routed per owner node, results
    /// in request order (`None` = miss).  When a node is down its share of
    /// the batch is read from the next replica successor.
    ///
    /// With `replicas > 1` the lookup also read-repairs: a record a replica
    /// successor served because the primary was down, and a record a
    /// successor still holds after the primary answered a miss (the
    /// empty-disk restart case), are written back to the primary owner best
    /// effort (`cluster_read_repairs_total`), so ordinary reads converge the
    /// cluster without an operator in the loop.
    ///
    /// # Errors
    ///
    /// [`ClusterError::Unavailable`] when some key's replica owners are all
    /// down, and node-level server/protocol errors.
    pub fn mget(
        &mut self,
        canonicals: &[String],
    ) -> Result<Vec<Option<PointRecord>>, ClusterError> {
        let mut results: Vec<Option<PointRecord>> = vec![None; canonicals.len()];
        let mut repairs: Vec<PointRecord> = Vec::new();
        let pending: Vec<(usize, usize)> = (0..canonicals.len()).map(|i| (i, 0)).collect();
        self.route_with_failover(pending, canonicals, |client, node, items| {
            let batch: Vec<String> = items
                .iter()
                .map(|&(item, _)| canonicals[item].clone())
                .collect();
            let records = client.nodes[node].call(|connection| connection.mget(&batch))?;
            if records.len() != items.len() {
                // A short reply must surface as a node error, not silently
                // leave the tail of the batch looking like misses.
                return Err(ClientError::Protocol(format!(
                    "mget answered {} of {} canonicals",
                    records.len(),
                    items.len()
                )));
            }
            for (&(item, attempt), record) in items.iter().zip(records) {
                if attempt > 0 {
                    // Served by a replica successor because an earlier owner
                    // was down: queue a write-back to the primary.
                    if let Some(record) = &record {
                        repairs.push(record.clone());
                    }
                }
                results[item] = record;
            }
            Ok(())
        })?;
        // A miss reported by a *healthy* primary may still live on a replica
        // successor — the primary may have lost its disk and restarted
        // empty.  Ask the successors best-effort before declaring a
        // cluster-wide miss, and queue whatever they hold for write-back.
        if self.replicas > 1 && results.iter().any(Option::is_none) {
            let mut missing: Vec<usize> = results
                .iter()
                .enumerate()
                .filter_map(|(item, record)| record.is_none().then_some(item))
                .collect();
            for attempt in 1..self.replicas {
                if missing.is_empty() {
                    break;
                }
                let mut groups: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
                for &item in &missing {
                    let key = fnv1a_64(canonicals[item].as_bytes());
                    if let Some(&node) = self.ring.owners(key, self.replicas).get(attempt) {
                        groups.entry(node).or_default().push(item);
                    }
                }
                for (node, items) in groups {
                    let batch: Vec<String> =
                        items.iter().map(|&item| canonicals[item].clone()).collect();
                    let Ok(records) = self.nodes[node].call(|connection| connection.mget(&batch))
                    else {
                        continue;
                    };
                    for (&item, record) in items.iter().zip(records) {
                        if let Some(record) = record {
                            repairs.push(record.clone());
                            results[item] = Some(record);
                        }
                    }
                }
                missing.retain(|&item| results[item].is_none());
            }
        }
        self.read_repair(repairs);
        Ok(results)
    }

    /// Best-effort write-back of records that replica successors served on
    /// behalf of their primary owner: the records are `put` to the primary,
    /// healing it the moment it is reachable again.  Dials through the
    /// primary's back-off window — the whole point is to reach a node that
    /// was down moments ago.  Replica copies newly stored on the primary
    /// count in `cluster_read_repairs_total`.
    fn read_repair(&mut self, records: Vec<PointRecord>) {
        if records.is_empty() {
            return;
        }
        let mut groups: BTreeMap<usize, Vec<PointRecord>> = BTreeMap::new();
        for record in records {
            let owners = self.ring.owners(record.key, self.replicas);
            if let Some(&primary) = owners.first() {
                groups.entry(primary).or_default().push(record);
            }
        }
        for (node, batch) in groups {
            self.nodes[node].forget_down_window();
            if let Ok(count) = self.nodes[node].call(|connection| connection.put(&batch)) {
                cluster_counters().read_repairs.add(count);
            }
        }
    }

    /// Answers a batch of design points: each point is routed to the node
    /// owning its canonical key and answered there (shard hit or exactly-once
    /// evaluation); per-point outcomes come back in request order.  Points
    /// that fail to resolve client-side (unknown algorithm/device) fail in
    /// place without travelling.  With `replicas > 1`, freshly evaluated
    /// records are teed to the replica successors (best effort — a replica
    /// that is down simply misses the tee and heals on a later fallback).
    ///
    /// # Errors
    ///
    /// [`ClusterError::Unavailable`] when some point's replica owners are
    /// all down, and node-level server/protocol errors.
    pub fn explore(&mut self, points: &[QueryPoint]) -> Result<ClusterExploreReply, ClusterError> {
        let mut outcomes: Vec<Option<PointOutcome>> = vec![None; points.len()];
        let mut canonicals: Vec<String> = vec![String::new(); points.len()];
        let mut pending: Vec<(usize, usize)> = Vec::with_capacity(points.len());
        for (index, point) in points.iter().enumerate() {
            match canonical_for(point) {
                Ok(canonical) => {
                    canonicals[index] = canonical;
                    pending.push((index, 0));
                }
                Err(error) => outcomes[index] = Some(PointOutcome::Failed { error }),
            }
        }
        let mut hits = 0;
        let mut evaluated = 0;
        let mut replicated = 0;
        self.route_with_failover(pending, &canonicals, |client, node, items| {
            let batch: Vec<QueryPoint> = items
                .iter()
                .map(|&(item, _)| points[item].clone())
                .collect();
            let reply = client.nodes[node].call(|connection| connection.mexplore(&batch))?;
            if reply.outcomes.len() != items.len() {
                // A short reply must surface as a node error, not as a
                // missing outcome (which would panic the final unwrap).
                return Err(ClientError::Protocol(format!(
                    "mexplore answered {} of {} points",
                    reply.outcomes.len(),
                    items.len()
                )));
            }
            hits += reply.hits;
            evaluated += reply.evaluated;
            let mut fresh = Vec::new();
            for (&(item, _), outcome) in items.iter().zip(reply.outcomes) {
                if client.replicas > 1 {
                    if let PointOutcome::Answered { record, hit: false } = &outcome {
                        fresh.push(record.clone());
                    }
                }
                outcomes[item] = Some(outcome);
            }
            if !fresh.is_empty() {
                replicated += client.tee(node, &fresh);
            }
            Ok(())
        })?;
        Ok(ClusterExploreReply {
            outcomes: outcomes
                .into_iter()
                .map(|outcome| outcome.expect("every point resolved or failed in place"))
                .collect(),
            hits,
            evaluated,
            replicated,
        })
    }

    /// Tees freshly evaluated records to every replica owner other than the
    /// node that evaluated them.  Best effort: a failing replica is marked
    /// down and skipped (its copy heals when a later explore falls back to
    /// it and re-evaluates).  Returns how many records were newly stored on
    /// replicas.
    fn tee(&mut self, source: usize, records: &[PointRecord]) -> u64 {
        let mut groups: BTreeMap<usize, Vec<PointRecord>> = BTreeMap::new();
        for record in records {
            for owner in self.ring.owners(record.key, self.replicas) {
                if owner != source {
                    groups.entry(owner).or_default().push(record.clone());
                }
            }
        }
        let mut stored = 0;
        for (node, batch) in groups {
            match self.nodes[node].call(|connection| connection.put(&batch)) {
                Ok(count) => {
                    cluster_counters().tee_stored.add(count);
                    stored += count;
                }
                Err(_) => cluster_counters().tee_failures.inc(),
            }
        }
        stored
    }

    /// Per-node and aggregate statistics.  Unreachable nodes report
    /// `up: false` with no server stats instead of failing the call.
    pub fn stats(&mut self) -> ClusterStats {
        let nodes = self
            .nodes
            .iter_mut()
            .map(|node| {
                let stats = node.call(Connection::stats).ok();
                NodeStats {
                    addr: node.addr.clone(),
                    up: stats.is_some(),
                    routed: node.routed,
                    stats,
                }
            })
            .collect();
        ClusterStats {
            nodes,
            replicas: self.replicas,
        }
    }

    /// Scrapes every node's telemetry and merges the reachable answers into
    /// one cluster-wide aggregate, alongside this process's own client-side
    /// instruments.  Unreachable nodes report `None` instead of failing the
    /// call.
    pub fn metrics(&mut self) -> ClusterMetrics {
        let nodes: Vec<(String, Option<MetricsSnapshot>)> = self
            .nodes
            .iter_mut()
            .map(|node| {
                let snapshot = node.call(Connection::metrics).ok();
                (node.addr.clone(), snapshot)
            })
            .collect();
        let mut aggregate = MetricsSnapshot::default();
        for (_, snapshot) in &nodes {
            if let Some(snapshot) = snapshot {
                aggregate.merge(snapshot);
            }
        }
        ClusterMetrics {
            nodes,
            aggregate,
            client: Registry::global().snapshot(),
        }
    }

    /// Fetches each node's metrics delta across its trailing `window_us`
    /// window, in configuration order.  A node that is unreachable — or has
    /// too few samples in the window, e.g. its sampler is off — reports
    /// `None` instead of failing the sweep.  Merging the `Some` deltas
    /// (see [`SnapshotDelta::merge`]) yields the fleet-wide view `srra
    /// cluster top` renders.
    pub fn series_delta(&mut self, window_us: u64) -> Vec<(String, Option<SnapshotDelta>)> {
        self.nodes
            .iter_mut()
            .map(|node| {
                let delta = node
                    .call(|connection| connection.series_delta(window_us))
                    .ok();
                (node.addr.clone(), delta)
            })
            .collect()
    }

    /// Asks every reachable node to shut down gracefully; returns how many
    /// acknowledged.
    pub fn shutdown_all(&mut self) -> usize {
        self.nodes
            .iter_mut()
            .map(|node| node.call(Connection::shutdown).is_ok())
            .filter(|&ok| ok)
            .count()
    }
}
