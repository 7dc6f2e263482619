//! The line-delimited JSON wire protocol spoken between `srra serve` and
//! `srra query`.
//!
//! Every request and every response is exactly one JSON object on one line
//! (`\n`-terminated).  A connection may carry any number of request/response
//! pairs in order, and clients may *pipeline*: write several request lines
//! before reading any replies — the server answers strictly in request order.
//! The batched `mget` / `mexplore` ops amortise framing and syscalls further
//! by answering many lookups or points with a single line in each direction.
//! The full specification lives in `docs/serving.md`; this module is the
//! single encode/decode implementation used by both the server and the
//! client, so the two cannot drift apart.
//!
//! All render methods come in a pair: `render` (fresh `String`) and
//! `render_into` (append to a caller-owned buffer), so the server and the
//! keep-alive client can reuse one scratch allocation across requests.
//! Embedded [`PointRecord`]s are written straight into the output buffer as
//! their raw JSONL lines (via [`PointRecord::write_json_line`]) — no
//! intermediate [`JsonValue`] tree and no per-record temporaries — so the
//! hot `get`/`explore` reply path allocates nothing beyond the record
//! lookup itself and the buffer's own growth.

use srra_explore::{render_string, JsonValue, PointRecord};
use srra_obs::{
    valid_metric_name, HistogramSnapshot, MetricsSnapshot, SeriesSample, SnapshotDelta, Span,
    LATENCY_BUCKETS,
};

/// Longest accepted `trace` id, in bytes.
pub const TRACE_MAX_LEN: usize = 64;

/// Whether `id` is a legal wire trace id: 1 ..= [`TRACE_MAX_LEN`] bytes of
/// `[A-Za-z0-9._-]`.
///
/// The restricted alphabet is what makes trace propagation free on the hot
/// path: a valid id never needs JSON escaping, so both sides can stamp and
/// strip the field with plain byte pushes (see [`stamp_trace`] /
/// [`trace_suffix`]).
pub fn valid_trace_id(id: &str) -> bool {
    !id.is_empty()
        && id.len() <= TRACE_MAX_LEN
        && id
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'-' | b'_' | b'.'))
}

/// Appends `,"trace":"<id>"` inside the closing brace of the one-object JSON
/// line in `out`.
///
/// Every rendered request and response line ends in `}`, so stamping is one
/// pop plus a few pushes — no re-render.  Callers guarantee
/// [`valid_trace_id`]`(id)`.
pub fn stamp_trace(out: &mut String, id: &str) {
    debug_assert!(
        out.ends_with('}'),
        "stamping requires a rendered JSON object"
    );
    debug_assert!(valid_trace_id(id));
    out.pop();
    out.push_str(",\"trace\":\"");
    out.push_str(id);
    out.push_str("\"}");
}

/// Recognises a trailing `,"trace":"<id>"}` suffix on a one-object JSON
/// line, returning the byte offset where the suffix starts and the id.
///
/// Sound for any valid JSON line: an unescaped `"` cannot occur inside a
/// JSON string, so a raw `,"trace":"` directly before the final `"}` can
/// only be a top-level `trace` member.  Lines where the candidate id fails
/// [`valid_trace_id`] are left alone and fall through to the full parser.
pub fn trace_suffix(line: &str) -> Option<(usize, &str)> {
    let rest = line.strip_suffix("\"}")?;
    let start = rest.rfind(",\"trace\":\"")?;
    let id = &rest[start + ",\"trace\":\"".len()..];
    valid_trace_id(id).then_some((start, id))
}

/// One design point named by a query (the request-side mirror of
/// [`srra_explore::DesignPoint`], with everything by name).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryPoint {
    /// Kernel name (`fir`, `mat`, ..., or `example`).
    pub kernel: String,
    /// Allocator name, label, version or alias (resolved through the
    /// [`srra_core::AllocatorRegistry`]).
    pub algorithm: String,
    /// Register budget.
    pub budget: u64,
    /// RAM access latency in cycles.
    pub ram_latency: u64,
    /// Device name (`xcv1000` / `xcv300`, case-insensitive, or a full part
    /// name).
    pub device: String,
}

impl QueryPoint {
    /// A point with the protocol defaults for latency (2 cycles) and device
    /// (`xcv1000`).
    pub fn new(kernel: impl Into<String>, algorithm: impl Into<String>, budget: u64) -> Self {
        Self {
            kernel: kernel.into(),
            algorithm: algorithm.into(),
            budget,
            ram_latency: 2,
            device: "xcv1000".to_owned(),
        }
    }

    fn render_into(&self, out: &mut String) {
        out.push_str("{\"kernel\":");
        render_string(out, &self.kernel);
        out.push_str(",\"algo\":");
        render_string(out, &self.algorithm);
        out.push_str(",\"budget\":");
        out.push_str(&self.budget.to_string());
        out.push_str(",\"latency\":");
        out.push_str(&self.ram_latency.to_string());
        out.push_str(",\"device\":");
        render_string(out, &self.device);
        out.push('}');
    }

    fn from_value(value: &JsonValue) -> Result<Self, String> {
        let text = |name: &str| -> Result<String, String> {
            value
                .get(name)
                .and_then(JsonValue::as_str)
                .map(str::to_owned)
                .ok_or_else(|| format!("point needs a string `{name}` field"))
        };
        let budget = value
            .get("budget")
            .and_then(JsonValue::as_u64)
            .ok_or("point needs a numeric `budget` field")?;
        let ram_latency = match value.get("latency") {
            None => 2,
            Some(v) => v.as_u64().ok_or("`latency` must be a number")?,
        };
        let device = match value.get("device") {
            None => "xcv1000".to_owned(),
            Some(v) => v
                .as_str()
                .map(str::to_owned)
                .ok_or("`device` must be a string")?,
        };
        Ok(Self {
            kernel: text("kernel")?,
            algorithm: text("algo")?,
            budget,
            ram_latency,
            device,
        })
    }
}

/// Renders `[item,item,...]`, each element through `render`.
fn render_array<T>(out: &mut String, items: &[T], mut render: impl FnMut(&mut String, &T)) {
    out.push('[');
    for (index, item) in items.iter().enumerate() {
        if index > 0 {
            out.push(',');
        }
        render(out, item);
    }
    out.push(']');
}

/// Parses the non-empty `points` array shared by `explore` and `mexplore`.
fn parse_points(value: &JsonValue, op: Op) -> Result<Vec<QueryPoint>, String> {
    let op = op.name();
    let items = value
        .get("points")
        .and_then(JsonValue::as_array)
        .ok_or_else(|| format!("`{op}` needs a `points` array"))?;
    if items.is_empty() {
        return Err(format!("`{op}` needs at least one point"));
    }
    items.iter().map(QueryPoint::from_value).collect()
}

/// One request line.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Look a record up by its canonical design-point string; never evaluates.
    Get {
        /// The canonical string (see `srra_explore::DesignPoint::canonical`).
        canonical: String,
    },
    /// Batched lookups: one line carrying many canonical strings, answered by
    /// one line of record-or-null results in request order.  Never evaluates.
    MultiGet {
        /// The canonical strings to look up, in reply order.
        canonicals: Vec<String>,
    },
    /// Answer a batch of design points: cache hits from the shards, misses
    /// evaluated on demand and written back.
    Explore {
        /// The points to answer, in request order.
        points: Vec<QueryPoint>,
    },
    /// Batched explore with *per-point* outcomes: points that fail to resolve
    /// answer with a per-point error instead of failing the whole batch.
    MultiExplore {
        /// The points to answer, in request order.
        points: Vec<QueryPoint>,
    },
    /// Store pre-evaluated records verbatim (no evaluation).  Used by the
    /// cluster router to tee freshly evaluated records to replica nodes; a
    /// record whose canonical is already present is a no-op.
    Put {
        /// The records to store, in their JSONL cache encoding.
        records: Vec<PointRecord>,
    },
    /// Trivial health probe: answers [`Response::Pong`] and touches nothing.
    /// Used by the cluster router to probe node liveness cheaply.
    Ping,
    /// Server statistics.
    Stats,
    /// Telemetry scrape: every instrument of the server's registry merged
    /// with the process-global one, as JSON or as a Prometheus-style text
    /// exposition (see `docs/observability.md`).
    Metrics {
        /// `false` answers [`Response::Metrics`] (JSON), `true` answers
        /// [`Response::MetricsText`] (Prometheus-style exposition).
        prometheus: bool,
    },
    /// Fetch the recorded span tree of one trace id from the server's flight
    /// recorder (see `docs/observability.md`).  Answers [`Response::Traced`]
    /// with every retained span of the trace, oldest first; a trace the
    /// recorder no longer holds answers with an empty span list, not an
    /// error.
    Trace {
        /// The trace id to look up (validated by [`valid_trace_id`]).
        id: String,
    },
    /// Time-series scrape of the server's sampled metrics ring (fed by
    /// `--sample-interval-ms`; see `docs/observability.md`).  Exactly one of
    /// the two fields is non-zero: `last` answers [`Response::Series`] with
    /// the most recent samples, `window_us` answers
    /// [`Response::SeriesDelta`] with the computed window delta (per-window
    /// counter increments and histogram buckets, last-value gauges).
    Series {
        /// Most recent samples to return (`0` when querying by window).
        last: u64,
        /// Window length in microseconds (`0` when querying by sample
        /// count).
        window_us: u64,
    },
    /// Anti-entropy digest: answers [`Response::Digests`] with one
    /// [`ShardDigest`] per shard, in shard order.  Cheap enough to compare
    /// across replicas on every repair pass without streaming records.
    Digest,
    /// Page through one shard's canonical strings in its stable store order.
    /// Answers [`Response::Scanned`]; repair and rebalance walk these pages
    /// to learn what a node holds without transferring whole records.
    Scan {
        /// Shard index to page through (`0 ..` the server's shard count).
        shard: u64,
        /// Records to skip before the first returned canonical.
        offset: u64,
        /// Maximum canonicals in this page (at least 1).
        limit: u64,
    },
    /// Graceful shutdown: the server acknowledges, stops accepting, drains
    /// in-flight connections and exits.
    Shutdown,
}

/// One wire op.  The discriminant is the op's position in the `stats` reply
/// (and in the server's per-op instruments); [`Op::TABLE`] holds its wire
/// name and binary request tag.  `Invalid` accounts requests that failed to
/// decode; it is never encoded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Op {
    Get,
    MultiGet,
    Explore,
    MultiExplore,
    Put,
    Ping,
    Stats,
    Metrics,
    Trace,
    Series,
    Digest,
    Scan,
    Shutdown,
    Invalid,
}

impl Op {
    /// Every op in `stats` order, with its wire name and binary request tag.
    pub(crate) const TABLE: [(Op, &'static str, u8); 14] = [
        (Op::Get, "get", 1),
        (Op::MultiGet, "mget", 2),
        (Op::Explore, "explore", 3),
        (Op::MultiExplore, "mexplore", 4),
        (Op::Put, "put", 5),
        (Op::Ping, "ping", 6),
        (Op::Stats, "stats", 7),
        (Op::Metrics, "metrics", 8),
        (Op::Trace, "trace", 10),
        (Op::Series, "series", 13),
        (Op::Digest, "digest", 11),
        (Op::Scan, "scan", 12),
        (Op::Shutdown, "shutdown", 9),
        (Op::Invalid, "invalid", 0),
    ];

    /// The op's wire name (the JSON `op` member, the `stats` key).
    pub(crate) fn name(self) -> &'static str {
        Self::TABLE[self as usize].1
    }

    /// The op's binary request tag.
    pub(crate) fn tag(self) -> u8 {
        Self::TABLE[self as usize].2
    }

    /// The op named `name`; callers treat `Invalid` like an unknown name.
    fn from_name(name: &str) -> Option<Op> {
        Self::TABLE
            .iter()
            .find(|entry| entry.1 == name)
            .map(|entry| entry.0)
    }

    /// The op tagged `tag`; callers treat `Invalid` like an unknown tag.
    pub(crate) fn from_tag(tag: u8) -> Option<Op> {
        Self::TABLE
            .iter()
            .find(|entry| entry.2 == tag)
            .map(|entry| entry.0)
    }
}

impl Request {
    /// The request's op.
    pub(crate) fn op(&self) -> Op {
        match self {
            Request::Get { .. } => Op::Get,
            Request::MultiGet { .. } => Op::MultiGet,
            Request::Explore { .. } => Op::Explore,
            Request::MultiExplore { .. } => Op::MultiExplore,
            Request::Put { .. } => Op::Put,
            Request::Ping => Op::Ping,
            Request::Stats => Op::Stats,
            Request::Metrics { .. } => Op::Metrics,
            Request::Trace { .. } => Op::Trace,
            Request::Series { .. } => Op::Series,
            Request::Digest => Op::Digest,
            Request::Scan { .. } => Op::Scan,
            Request::Shutdown => Op::Shutdown,
        }
    }

    /// Encodes the request as one JSON line (no trailing newline).
    pub fn render(&self) -> String {
        let mut out = String::with_capacity(64);
        self.render_into(&mut out);
        out
    }

    /// Encodes the request into `out` (no trailing newline), reusing the
    /// buffer's allocation.
    pub fn render_into(&self, out: &mut String) {
        out.push_str("{\"op\":\"");
        out.push_str(self.op().name());
        out.push('"');
        match self {
            Request::Get { canonical } => {
                out.push_str(",\"canonical\":");
                render_string(out, canonical);
            }
            Request::MultiGet { canonicals } => {
                out.push_str(",\"canonicals\":");
                render_array(out, canonicals, |out, canonical| {
                    render_string(out, canonical)
                });
            }
            Request::Explore { points } | Request::MultiExplore { points } => {
                out.push_str(",\"points\":");
                render_array(out, points, |out, point| point.render_into(out));
            }
            Request::Put { records } => {
                out.push_str(",\"records\":");
                render_array(out, records, |out, record| record.write_json_line(out));
            }
            Request::Metrics { prometheus: true } => out.push_str(",\"format\":\"prometheus\""),
            Request::Trace { id } => {
                out.push_str(",\"id\":");
                render_string(out, id);
            }
            Request::Series { last, window_us } => {
                if *window_us > 0 {
                    out.push_str(",\"window_us\":");
                    out.push_str(&window_us.to_string());
                } else {
                    out.push_str(",\"last\":");
                    out.push_str(&last.to_string());
                }
            }
            Request::Scan {
                shard,
                offset,
                limit,
            } => {
                out.push_str(",\"shard\":");
                out.push_str(&shard.to_string());
                out.push_str(",\"offset\":");
                out.push_str(&offset.to_string());
                out.push_str(",\"limit\":");
                out.push_str(&limit.to_string());
            }
            Request::Ping
            | Request::Stats
            | Request::Metrics { prometheus: false }
            | Request::Digest
            | Request::Shutdown => {}
        }
        out.push('}');
    }

    /// Decodes one request line.
    ///
    /// # Errors
    ///
    /// Returns a user-facing description of the first problem (malformed JSON,
    /// unknown op, missing fields).
    pub fn parse(line: &str) -> Result<Self, String> {
        // Fast path for the hot `get` line exactly as [`Request::render`]
        // frames it.  A canonical containing quotes or escapes falls back to
        // the general parser below.
        if let Some(rest) = line.strip_prefix("{\"op\":\"get\",\"canonical\":\"") {
            if let Some(text) = rest.strip_suffix("\"}") {
                if !text.contains('\\') && !text.contains('"') {
                    return Ok(Request::Get {
                        canonical: text.to_owned(),
                    });
                }
            }
        }
        let value = JsonValue::parse(line)?;
        let name = value
            .get("op")
            .and_then(JsonValue::as_str)
            .ok_or("request needs a string `op` field")?;
        match Op::from_name(name) {
            Some(Op::Get) => Ok(Request::Get {
                canonical: value
                    .get("canonical")
                    .and_then(JsonValue::as_str)
                    .ok_or("`get` needs a string `canonical` field")?
                    .to_owned(),
            }),
            Some(Op::MultiGet) => {
                let items = value
                    .get("canonicals")
                    .and_then(JsonValue::as_array)
                    .ok_or("`mget` needs a `canonicals` array")?;
                if items.is_empty() {
                    return Err("`mget` needs at least one canonical".to_owned());
                }
                let canonicals = items
                    .iter()
                    .map(|item| {
                        item.as_str()
                            .map(str::to_owned)
                            .ok_or("`canonicals` entries must be strings".to_owned())
                    })
                    .collect::<Result<Vec<_>, _>>()?;
                Ok(Request::MultiGet { canonicals })
            }
            Some(Op::Explore) => Ok(Request::Explore {
                points: parse_points(&value, Op::Explore)?,
            }),
            Some(Op::MultiExplore) => Ok(Request::MultiExplore {
                points: parse_points(&value, Op::MultiExplore)?,
            }),
            Some(Op::Put) => {
                let items = value
                    .get("records")
                    .and_then(JsonValue::as_array)
                    .ok_or("`put` needs a `records` array")?;
                if items.is_empty() {
                    return Err("`put` needs at least one record".to_owned());
                }
                let records = items
                    .iter()
                    .map(PointRecord::from_json_value)
                    .collect::<Result<Vec<_>, _>>()?;
                Ok(Request::Put { records })
            }
            Some(Op::Ping) => Ok(Request::Ping),
            Some(Op::Stats) => Ok(Request::Stats),
            Some(Op::Metrics) => match value.get("format").map(JsonValue::as_str) {
                None => Ok(Request::Metrics { prometheus: false }),
                Some(Some("json")) => Ok(Request::Metrics { prometheus: false }),
                Some(Some("prometheus" | "prom")) => Ok(Request::Metrics { prometheus: true }),
                Some(other) => Err(format!(
                    "`metrics` format must be \"json\" or \"prometheus\", got {other:?}"
                )),
            },
            Some(Op::Trace) => {
                let id = value
                    .get("id")
                    .and_then(JsonValue::as_str)
                    .ok_or("`trace` needs a string `id` field")?;
                if !valid_trace_id(id) {
                    return Err(format!(
                        "`trace` id must be 1..={TRACE_MAX_LEN} bytes of [A-Za-z0-9._-]"
                    ));
                }
                Ok(Request::Trace { id: id.to_owned() })
            }
            Some(Op::Series) => {
                let field = |name: &str| -> Result<u64, String> {
                    match value.get(name) {
                        None => Ok(0),
                        Some(v) => v
                            .as_u64()
                            .ok_or_else(|| format!("`{name}` must be a number")),
                    }
                };
                let last = field("last")?;
                let window_us = field("window_us")?;
                if (last == 0) == (window_us == 0) {
                    return Err(
                        "`series` needs exactly one of `last` or `window_us`, non-zero".to_owned(),
                    );
                }
                Ok(Request::Series { last, window_us })
            }
            Some(Op::Digest) => Ok(Request::Digest),
            Some(Op::Scan) => {
                let shard = value
                    .get("shard")
                    .and_then(JsonValue::as_u64)
                    .ok_or("`scan` needs a numeric `shard` field")?;
                let offset = match value.get("offset") {
                    None => 0,
                    Some(v) => v.as_u64().ok_or("`offset` must be a number")?,
                };
                let limit = match value.get("limit") {
                    None => 1024,
                    Some(v) => v.as_u64().ok_or("`limit` must be a number")?,
                };
                if limit == 0 {
                    return Err("`scan` limit must be at least 1".to_owned());
                }
                Ok(Request::Scan {
                    shard,
                    offset,
                    limit,
                })
            }
            Some(Op::Shutdown) => Ok(Request::Shutdown),
            Some(Op::Invalid) | None => Err(format!("unknown op `{name}`")),
        }
    }

    /// Decodes one request line together with its optional `trace` id.
    ///
    /// Clients render the `trace` member last (see [`stamp_trace`]), so the
    /// common cases — no trace at all, or a traced hot-path `get` — are
    /// answered without re-framing the line; only traced non-`get` requests
    /// pay one small copy to strip the suffix before the general parser.
    ///
    /// # Errors
    ///
    /// As [`Request::parse`].
    pub fn parse_with_trace(line: &str) -> Result<(Self, Option<String>), String> {
        let Some((start, id)) = trace_suffix(line) else {
            return Ok((Self::parse(line)?, None));
        };
        let trace = Some(id.to_owned());
        let body = &line[..start];
        // Traced twin of the hot `get` fast path in [`Request::parse`].
        if let Some(text) = body.strip_prefix("{\"op\":\"get\",\"canonical\":\"") {
            if let Some(text) = text.strip_suffix('"') {
                if !text.contains('\\') && !text.contains('"') {
                    return Ok((
                        Request::Get {
                            canonical: text.to_owned(),
                        },
                        trace,
                    ));
                }
            }
        }
        let mut stripped = String::with_capacity(body.len() + 1);
        stripped.push_str(body);
        stripped.push('}');
        Ok((Self::parse(&stripped)?, trace))
    }
}

/// One shard's anti-entropy digest, as served by the `digest` op: the
/// record count plus an order-insensitive fold of the records' content
/// hashes.  Two shards holding the same record set report the same digest
/// regardless of insertion order, and one mutated payload flips the fold —
/// so replicas can detect divergence by comparing a few integers instead of
/// streaming records (see `ShardedStore::digests`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardDigest {
    /// Records indexed in the shard.
    pub records: u64,
    /// Order-insensitive fold over the records' content hashes.
    pub fold: u64,
}

/// Request count and latency quantiles of one op, as reported by `stats`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OpStats {
    /// Op name (`get`, `mget`, `explore`, `mexplore`, `put`, `ping`,
    /// `stats`, `shutdown`, or `invalid` for unparseable request lines).
    pub op: String,
    /// Requests of this op handled so far.
    pub count: u64,
    /// Median service time in microseconds (bucket upper bound; 0 when the
    /// op was never requested).
    pub p50_us: u64,
    /// 99th-percentile service time in microseconds (bucket upper bound).
    pub p99_us: u64,
}

/// Server statistics reported by [`Request::Stats`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServerStats {
    /// Milliseconds since the server started.
    pub uptime_ms: u64,
    /// Whole seconds since the server started (the human-friendly twin of
    /// `uptime_ms`; derived from it when talking to a server that predates
    /// the field).
    pub uptime_secs: u64,
    /// The server's `srra-serve` crate version, empty when talking to a
    /// server that predates the field.
    pub version: String,
    /// Connections accepted.
    pub connections: u64,
    /// Requests handled (all ops).
    pub requests: u64,
    /// Lookups answered from the shards.
    pub hits: u64,
    /// Lookups that found nothing in the shards.
    pub misses: u64,
    /// Design points evaluated on demand.
    pub evaluated: u64,
    /// Record count per shard, in shard order.
    pub shard_records: Vec<usize>,
    /// Per-op request counts and service-time quantiles, in the server's
    /// fixed op order.  Empty when talking to a server that predates the
    /// field.
    pub ops: Vec<OpStats>,
}

impl ServerStats {
    /// Total records across all shards.
    pub fn records(&self) -> usize {
        self.shard_records.iter().sum()
    }

    /// The stats entry for `op`, if the server reported one.
    pub fn op(&self, op: &str) -> Option<&OpStats> {
        self.ops.iter().find(|entry| entry.op == op)
    }

    fn to_value(&self) -> JsonValue {
        JsonValue::Object(vec![
            (
                "uptime_ms".to_owned(),
                JsonValue::Number(self.uptime_ms.to_string()),
            ),
            (
                "uptime_secs".to_owned(),
                JsonValue::Number(self.uptime_secs.to_string()),
            ),
            ("version".to_owned(), JsonValue::Text(self.version.clone())),
            (
                "connections".to_owned(),
                JsonValue::Number(self.connections.to_string()),
            ),
            (
                "requests".to_owned(),
                JsonValue::Number(self.requests.to_string()),
            ),
            ("hits".to_owned(), JsonValue::Number(self.hits.to_string())),
            (
                "misses".to_owned(),
                JsonValue::Number(self.misses.to_string()),
            ),
            (
                "evaluated".to_owned(),
                JsonValue::Number(self.evaluated.to_string()),
            ),
            (
                "records".to_owned(),
                JsonValue::Number(self.records().to_string()),
            ),
            (
                "shard_count".to_owned(),
                JsonValue::Number(self.shard_records.len().to_string()),
            ),
            (
                "shards".to_owned(),
                JsonValue::Array(
                    self.shard_records
                        .iter()
                        .map(|n| JsonValue::Number(n.to_string()))
                        .collect(),
                ),
            ),
            (
                "ops".to_owned(),
                JsonValue::Object(
                    self.ops
                        .iter()
                        .map(|entry| {
                            (
                                entry.op.clone(),
                                JsonValue::Object(vec![
                                    (
                                        "count".to_owned(),
                                        JsonValue::Number(entry.count.to_string()),
                                    ),
                                    (
                                        "p50_us".to_owned(),
                                        JsonValue::Number(entry.p50_us.to_string()),
                                    ),
                                    (
                                        "p99_us".to_owned(),
                                        JsonValue::Number(entry.p99_us.to_string()),
                                    ),
                                ]),
                            )
                        })
                        .collect(),
                ),
            ),
        ])
    }

    fn from_value(value: &JsonValue) -> Result<Self, String> {
        let num = |name: &str| -> Result<u64, String> {
            value
                .get(name)
                .and_then(JsonValue::as_u64)
                .ok_or_else(|| format!("stats need a numeric `{name}` field"))
        };
        let shard_records = value
            .get("shards")
            .and_then(JsonValue::as_array)
            .ok_or("stats need a `shards` array")?
            .iter()
            .map(|v| v.as_u64().map(|n| n as usize))
            .collect::<Option<Vec<_>>>()
            .ok_or("`shards` entries must be numbers")?;
        // Absent on pre-batching servers: default to empty rather than erroring,
        // so a new client can still read an old server's stats.
        let mut ops = Vec::new();
        if let Some(JsonValue::Object(entries)) = value.get("ops") {
            for (op, entry) in entries {
                let field = |name: &str| -> Result<u64, String> {
                    entry
                        .get(name)
                        .and_then(JsonValue::as_u64)
                        .ok_or_else(|| format!("op stats need a numeric `{name}` field"))
                };
                ops.push(OpStats {
                    op: op.clone(),
                    count: field("count")?,
                    p50_us: field("p50_us")?,
                    p99_us: field("p99_us")?,
                });
            }
        }
        let uptime_ms = num("uptime_ms")?;
        // Absent on servers that predate the field (as are `version` and the
        // redundant `shard_count`): tolerate, deriving what we can.
        let uptime_secs = value
            .get("uptime_secs")
            .and_then(JsonValue::as_u64)
            .unwrap_or(uptime_ms / 1000);
        let version = value
            .get("version")
            .and_then(JsonValue::as_str)
            .unwrap_or("")
            .to_owned();
        Ok(Self {
            uptime_ms,
            uptime_secs,
            version,
            connections: num("connections")?,
            requests: num("requests")?,
            hits: num("hits")?,
            misses: num("misses")?,
            evaluated: num("evaluated")?,
            shard_records,
            ops,
        })
    }
}

/// The per-point result of one `mexplore` entry.
//
// `Answered` dwarfs `Failed`, but outcomes overwhelmingly ARE answers on the
// hot path — boxing the record would buy smaller error variants at the price
// of one extra allocation per served record.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, PartialEq)]
pub enum PointOutcome {
    /// The point resolved; `hit` is `true` when the shards already held the
    /// record before this request arrived.  `hit == false` means the point
    /// was evaluated on this request's account — by this request itself *or
    /// by a concurrent one it waited on* (matching the `evaluated` counter
    /// of [`Response::Explored`]).
    Answered {
        /// The stored or freshly evaluated record.
        record: PointRecord,
        /// Whether the shards already held the record when the request
        /// arrived.
        hit: bool,
    },
    /// The point failed to resolve (unknown kernel/algorithm/device or a
    /// store error); the rest of the batch is unaffected.
    Failed {
        /// A user-facing description of the problem.
        error: String,
    },
}

/// One response line.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// `get` hit.
    Found {
        /// The stored record.
        record: PointRecord,
    },
    /// `get` miss.
    NotFound,
    /// `mget` answer: one record-or-null per requested canonical, in order.
    MultiGot {
        /// `Some(record)` for hits, `None` for misses, in request order.
        records: Vec<Option<PointRecord>>,
    },
    /// `explore` answer.
    Explored {
        /// One record per requested point, in request order.
        records: Vec<PointRecord>,
        /// Points answered from the shards.
        hits: u64,
        /// Points evaluated on demand (by this request or one it waited on).
        evaluated: u64,
    },
    /// `mexplore` answer: per-point outcomes, in request order.
    MultiExplored {
        /// One outcome per requested point.
        outcomes: Vec<PointOutcome>,
        /// Points answered from the shards.
        hits: u64,
        /// Points evaluated on demand (by this request or one it waited on).
        evaluated: u64,
    },
    /// `put` answer: how many of the records were new to the store (records
    /// whose canonical was already present are skipped).
    Stored {
        /// Newly stored records, `<=` the records in the request.
        stored: u64,
    },
    /// `ping` answer.
    Pong,
    /// `stats` answer.
    Stats(ServerStats),
    /// `metrics` answer in JSON form: the merged per-server + process-global
    /// instrument snapshot.
    Metrics(MetricsSnapshot),
    /// `metrics` answer in Prometheus-style text form, carried as one JSON
    /// string member (the exposition itself is multi-line; the wire line is
    /// still one line).
    MetricsText {
        /// The rendered exposition, `\n`-separated inside the JSON string.
        text: String,
    },
    /// `trace` answer: every span of the requested trace that the node's
    /// flight recorder still retains, sorted by start time.  An unknown or
    /// evicted trace answers with an empty list.
    Traced {
        /// The retained spans, oldest first.
        spans: Vec<Span>,
    },
    /// `series` answer (by sample count): the most recent retained samples
    /// of the server's metrics ring, oldest first.  A server whose sampler
    /// is off answers an empty list.
    Series {
        /// The retained samples, oldest first.
        samples: Vec<SeriesSample>,
    },
    /// `series` answer (by window): the delta between the newest retained
    /// sample and the oldest one inside the window — per-window counter
    /// increments and histogram buckets, last-value gauges.
    SeriesDelta {
        /// The computed window delta.
        delta: SnapshotDelta,
    },
    /// `digest` answer: one entry per shard, in shard order.
    Digests {
        /// Per-shard digests (`digests.len()` is the server's shard count).
        digests: Vec<ShardDigest>,
    },
    /// `scan` answer: one page of canonical strings from the requested shard.
    Scanned {
        /// The canonicals in this page, in the shard's stable store order.
        canonicals: Vec<String>,
        /// Whether the page reached the end of the shard (an `offset` past
        /// the end answers an empty page with `done == true`).
        done: bool,
    },
    /// `shutdown` acknowledgement.
    ShuttingDown,
    /// Any failure; the connection stays open.
    Error {
        /// A user-facing description of the problem.
        message: String,
    },
}

impl Response {
    /// Encodes the response as one JSON line (no trailing newline).
    pub fn render(&self) -> String {
        let mut out = String::with_capacity(128);
        self.render_into(&mut out);
        out
    }

    /// Encodes the response into `out` (no trailing newline), reusing the
    /// buffer's allocation.  Embedded records are appended as their raw JSONL
    /// lines (byte-identical to the shard files), so the hot reply paths do
    /// not build an intermediate JSON tree.
    pub fn render_into(&self, out: &mut String) {
        match self {
            Response::Found { record } => {
                out.push_str("{\"ok\":true,\"found\":true,\"record\":");
                record.write_json_line(out);
                out.push('}');
            }
            Response::NotFound => out.push_str(r#"{"ok":true,"found":false}"#),
            Response::MultiGot { records } => {
                out.push_str("{\"ok\":true,\"got\":");
                render_array(out, records, |out, record| match record {
                    Some(record) => record.write_json_line(out),
                    None => out.push_str("null"),
                });
                out.push('}');
            }
            Response::Explored {
                records,
                hits,
                evaluated,
            } => {
                out.push_str("{\"ok\":true,\"records\":");
                render_array(out, records, |out, record| record.write_json_line(out));
                render_hits_evaluated(out, *hits, *evaluated);
            }
            Response::MultiExplored {
                outcomes,
                hits,
                evaluated,
            } => {
                out.push_str("{\"ok\":true,\"outcomes\":");
                render_array(out, outcomes, |out, outcome| match outcome {
                    PointOutcome::Answered { record, hit } => {
                        out.push_str(if *hit {
                            "{\"hit\":true,\"record\":"
                        } else {
                            "{\"hit\":false,\"record\":"
                        });
                        record.write_json_line(out);
                        out.push('}');
                    }
                    PointOutcome::Failed { error } => {
                        out.push_str("{\"error\":");
                        render_string(out, error);
                        out.push('}');
                    }
                });
                render_hits_evaluated(out, *hits, *evaluated);
            }
            Response::Stored { stored } => {
                out.push_str("{\"ok\":true,\"stored\":");
                out.push_str(&stored.to_string());
                out.push('}');
            }
            Response::Pong => out.push_str(r#"{"ok":true,"pong":true}"#),
            Response::Stats(stats) => {
                out.push_str("{\"ok\":true,\"stats\":");
                stats.to_value().render_into(out);
                out.push('}');
            }
            Response::Metrics(snapshot) => {
                out.push_str("{\"ok\":true,\"metrics\":");
                snapshot.render_json_into(out);
                out.push('}');
            }
            Response::MetricsText { text } => {
                out.push_str("{\"ok\":true,\"exposition\":");
                render_string(out, text);
                out.push('}');
            }
            Response::Traced { spans } => {
                out.push_str("{\"ok\":true,\"spans\":");
                render_array(out, spans, render_span);
                out.push('}');
            }
            Response::Series { samples } => {
                out.push_str("{\"ok\":true,\"series\":");
                render_array(out, samples, |out, sample| {
                    out.push_str("{\"at_us\":");
                    out.push_str(&sample.at_us.to_string());
                    out.push_str(",\"metrics\":");
                    sample.metrics.render_json_into(out);
                    out.push('}');
                });
                out.push('}');
            }
            Response::SeriesDelta { delta } => {
                out.push_str("{\"ok\":true,\"delta\":{\"from_us\":");
                out.push_str(&delta.from_us.to_string());
                out.push_str(",\"to_us\":");
                out.push_str(&delta.to_us.to_string());
                out.push_str(",\"metrics\":");
                delta.diff.render_json_into(out);
                out.push_str("}}");
            }
            Response::Digests { digests } => {
                out.push_str("{\"ok\":true,\"digests\":");
                render_array(out, digests, |out, digest| {
                    out.push_str("{\"records\":");
                    out.push_str(&digest.records.to_string());
                    out.push_str(",\"fold\":");
                    out.push_str(&digest.fold.to_string());
                    out.push('}');
                });
                out.push('}');
            }
            Response::Scanned { canonicals, done } => {
                out.push_str("{\"ok\":true,\"canonicals\":");
                render_array(out, canonicals, |out, canonical| {
                    render_string(out, canonical)
                });
                out.push_str(if *done {
                    ",\"done\":true}"
                } else {
                    ",\"done\":false}"
                });
            }
            Response::ShuttingDown => out.push_str(r#"{"ok":true,"shutting_down":true}"#),
            Response::Error { message } => {
                out.push_str("{\"ok\":false,\"error\":");
                render_string(out, message);
                out.push('}');
            }
        }
    }

    /// Decodes one response line.
    ///
    /// # Errors
    ///
    /// Returns a description of the first problem (malformed JSON or an
    /// unrecognised shape).
    pub fn parse(line: &str) -> Result<Self, String> {
        // Fast path for the hot `get` hit reply exactly as
        // [`Response::render`] frames it: one flat parse of the embedded
        // record instead of a JSON tree plus a re-render plus a second
        // parse.  Any other framing falls back to the general parser below.
        if let Some(rest) = line.strip_prefix("{\"ok\":true,\"found\":true,\"record\":") {
            if let Some(record_text) = rest.strip_suffix('}') {
                if let Ok(record) = PointRecord::from_json_line(record_text) {
                    return Ok(Response::Found { record });
                }
            }
        }
        let value = JsonValue::parse(line)?;
        let ok = value
            .get("ok")
            .and_then(JsonValue::as_bool)
            .ok_or("response needs a boolean `ok` field")?;
        if !ok {
            return Ok(Response::Error {
                message: value
                    .get("error")
                    .and_then(JsonValue::as_str)
                    .unwrap_or("unspecified server error")
                    .to_owned(),
            });
        }
        if let Some(found) = value.get("found").and_then(JsonValue::as_bool) {
            return if found {
                Ok(Response::Found {
                    record: PointRecord::from_json_value(
                        value
                            .get("record")
                            .ok_or("`found` response lacks `record`")?,
                    )?,
                })
            } else {
                Ok(Response::NotFound)
            };
        }
        if let Some(items) = value.get("got").and_then(JsonValue::as_array) {
            let records = items
                .iter()
                .map(|item| match item {
                    JsonValue::Null => Ok(None),
                    other => PointRecord::from_json_value(other).map(Some),
                })
                .collect::<Result<Vec<_>, String>>()?;
            return Ok(Response::MultiGot { records });
        }
        if let Some(items) = value.get("outcomes").and_then(JsonValue::as_array) {
            let outcomes = items
                .iter()
                .map(|item| {
                    if let Some(error) = item.get("error").and_then(JsonValue::as_str) {
                        return Ok(PointOutcome::Failed {
                            error: error.to_owned(),
                        });
                    }
                    let hit = item
                        .get("hit")
                        .and_then(JsonValue::as_bool)
                        .ok_or("outcome needs a boolean `hit` field")?;
                    let record = PointRecord::from_json_value(
                        item.get("record").ok_or("outcome lacks a `record` field")?,
                    )?;
                    Ok(PointOutcome::Answered { record, hit })
                })
                .collect::<Result<Vec<_>, String>>()?;
            let (hits, evaluated) = parse_hits_evaluated(&value, "mexplore")?;
            return Ok(Response::MultiExplored {
                outcomes,
                hits,
                evaluated,
            });
        }
        if let Some(items) = value.get("records").and_then(JsonValue::as_array) {
            let records = items
                .iter()
                .map(PointRecord::from_json_value)
                .collect::<Result<Vec<_>, _>>()?;
            let (hits, evaluated) = parse_hits_evaluated(&value, "explore")?;
            return Ok(Response::Explored {
                records,
                hits,
                evaluated,
            });
        }
        if let Some(stored) = value.get("stored").and_then(JsonValue::as_u64) {
            return Ok(Response::Stored { stored });
        }
        if value.get("pong").and_then(JsonValue::as_bool) == Some(true) {
            return Ok(Response::Pong);
        }
        if let Some(stats) = value.get("stats") {
            return Ok(Response::Stats(ServerStats::from_value(stats)?));
        }
        if let Some(metrics) = value.get("metrics") {
            return Ok(Response::Metrics(snapshot_from_value(metrics)?));
        }
        if let Some(text) = value.get("exposition").and_then(JsonValue::as_str) {
            return Ok(Response::MetricsText {
                text: text.to_owned(),
            });
        }
        if let Some(items) = value.get("spans").and_then(JsonValue::as_array) {
            let spans = items
                .iter()
                .map(span_from_value)
                .collect::<Result<Vec<_>, _>>()?;
            return Ok(Response::Traced { spans });
        }
        if let Some(items) = value.get("series").and_then(JsonValue::as_array) {
            let samples = items
                .iter()
                .map(|item| {
                    let at_us = item
                        .get("at_us")
                        .and_then(JsonValue::as_u64)
                        .ok_or("series sample needs a numeric `at_us` field")?;
                    let metrics = snapshot_from_value(
                        item.get("metrics")
                            .ok_or("series sample lacks a `metrics` field")?,
                    )?;
                    Ok(SeriesSample { at_us, metrics })
                })
                .collect::<Result<Vec<_>, String>>()?;
            return Ok(Response::Series { samples });
        }
        if let Some(item) = value.get("delta") {
            let field = |name: &str| -> Result<u64, String> {
                item.get(name)
                    .and_then(JsonValue::as_u64)
                    .ok_or_else(|| format!("series delta needs a numeric `{name}` field"))
            };
            let diff = snapshot_from_value(
                item.get("metrics")
                    .ok_or("series delta lacks a `metrics` field")?,
            )?;
            return Ok(Response::SeriesDelta {
                delta: SnapshotDelta {
                    from_us: field("from_us")?,
                    to_us: field("to_us")?,
                    diff,
                },
            });
        }
        if let Some(items) = value.get("digests").and_then(JsonValue::as_array) {
            let digests = items
                .iter()
                .map(|item| {
                    let field = |name: &str| -> Result<u64, String> {
                        item.get(name)
                            .and_then(JsonValue::as_u64)
                            .ok_or_else(|| format!("digest needs a numeric `{name}` field"))
                    };
                    Ok(ShardDigest {
                        records: field("records")?,
                        fold: field("fold")?,
                    })
                })
                .collect::<Result<Vec<_>, String>>()?;
            return Ok(Response::Digests { digests });
        }
        if let Some(items) = value.get("canonicals").and_then(JsonValue::as_array) {
            let canonicals = items
                .iter()
                .map(|item| {
                    item.as_str()
                        .map(str::to_owned)
                        .ok_or("`canonicals` entries must be strings".to_owned())
                })
                .collect::<Result<Vec<_>, String>>()?;
            let done = value
                .get("done")
                .and_then(JsonValue::as_bool)
                .ok_or("`scan` response needs a boolean `done` field")?;
            return Ok(Response::Scanned { canonicals, done });
        }
        if value.get("shutting_down").and_then(JsonValue::as_bool) == Some(true) {
            return Ok(Response::ShuttingDown);
        }
        Err("unrecognised response shape".to_owned())
    }
}

/// Renders one span as a JSON object (the `trace` reply's element shape —
/// see `docs/observability.md`).  Empty annotation lists are omitted.
fn render_span(out: &mut String, span: &Span) {
    out.push_str("{\"trace\":");
    render_string(out, &span.trace_id);
    out.push_str(",\"span\":");
    out.push_str(&span.span_id.to_string());
    out.push_str(",\"parent\":");
    out.push_str(&span.parent_id.to_string());
    out.push_str(",\"name\":");
    render_string(out, &span.name);
    out.push_str(",\"start_us\":");
    out.push_str(&span.start_us.to_string());
    out.push_str(",\"dur_us\":");
    out.push_str(&span.dur_us.to_string());
    if !span.annotations.is_empty() {
        out.push_str(",\"annotations\":{");
        for (index, (key, value)) in span.annotations.iter().enumerate() {
            if index > 0 {
                out.push(',');
            }
            render_string(out, key);
            out.push(':');
            render_string(out, value);
        }
        out.push('}');
    }
    out.push('}');
}

/// Decodes one span of a `trace` reply.
fn span_from_value(value: &JsonValue) -> Result<Span, String> {
    let text = |name: &str| -> Result<String, String> {
        value
            .get(name)
            .and_then(JsonValue::as_str)
            .map(str::to_owned)
            .ok_or_else(|| format!("span needs a string `{name}` field"))
    };
    let number = |name: &str| -> Result<u64, String> {
        value
            .get(name)
            .and_then(JsonValue::as_u64)
            .ok_or_else(|| format!("span needs a numeric `{name}` field"))
    };
    let annotations = match value.get("annotations") {
        None => Vec::new(),
        Some(JsonValue::Object(entries)) => entries
            .iter()
            .map(|(key, entry)| {
                entry
                    .as_str()
                    .map(|text| (key.clone(), text.to_owned()))
                    .ok_or_else(|| format!("span annotation `{key}` must be a string"))
            })
            .collect::<Result<Vec<_>, _>>()?,
        Some(_) => return Err("span `annotations` must be an object".to_owned()),
    };
    Ok(Span {
        trace_id: text("trace")?,
        span_id: number("span")?,
        parent_id: number("parent")?,
        name: text("name")?,
        start_us: number("start_us")?,
        dur_us: number("dur_us")?,
        annotations,
    })
}

/// Decodes the `metrics` reply body back into a [`MetricsSnapshot`].
///
/// Metric names are re-validated on the way in (they render unescaped on
/// the way out), and histogram bucket arrays may be shorter than the local
/// bucket count — a trailing-zero-trimmed or older peer's array zero-pads.
fn snapshot_from_value(value: &JsonValue) -> Result<MetricsSnapshot, String> {
    let mut snapshot = MetricsSnapshot::default();
    let entries = |name: &str| -> Result<&[(String, JsonValue)], String> {
        match value.get(name) {
            None => Ok(&[]),
            Some(JsonValue::Object(entries)) => Ok(entries),
            Some(_) => Err(format!("metrics `{name}` must be an object")),
        }
    };
    for (name, entry) in entries("counters")? {
        if !valid_metric_name(name) {
            return Err(format!("illegal metric name {name:?}"));
        }
        let count = entry
            .as_u64()
            .ok_or_else(|| format!("counter `{name}` must be a non-negative number"))?;
        snapshot.counters.push((name.clone(), count));
    }
    for (name, entry) in entries("gauges")? {
        if !valid_metric_name(name) {
            return Err(format!("illegal metric name {name:?}"));
        }
        let JsonValue::Number(raw) = entry else {
            return Err(format!("gauge `{name}` must be a number"));
        };
        let level = raw
            .parse::<i64>()
            .map_err(|_| format!("gauge `{name}` must be an integer"))?;
        snapshot.gauges.push((name.clone(), level));
    }
    for (name, entry) in entries("histograms")? {
        if !valid_metric_name(name) {
            return Err(format!("illegal metric name {name:?}"));
        }
        let buckets = entry
            .get("buckets")
            .and_then(JsonValue::as_array)
            .ok_or_else(|| format!("histogram `{name}` needs a `buckets` array"))?
            .iter()
            .map(JsonValue::as_u64)
            .collect::<Option<Vec<_>>>()
            .ok_or_else(|| format!("histogram `{name}` buckets must be numbers"))?;
        let mut buckets = HistogramSnapshot::from_buckets(&buckets)
            .ok_or_else(|| format!("histogram `{name}` carries too many buckets"))?;
        match entry.get("exemplars") {
            None => {}
            Some(JsonValue::Object(exemplars)) => {
                // Keys are the bucket upper bounds `(1 << index) - 1` the
                // JSON rendering emits; unknown bounds are ignored so newer
                // peers with more buckets still parse.
                for (le, id) in exemplars {
                    let (Ok(bound), Some(id)) = (le.parse::<u64>(), id.as_str()) else {
                        return Err(format!(
                            "histogram `{name}` exemplars must map bucket bounds to trace ids"
                        ));
                    };
                    if let Some(index) =
                        (0..LATENCY_BUCKETS).find(|i| (1u64 << i).wrapping_sub(1) == bound)
                    {
                        buckets.set_exemplar(index, id.to_owned());
                    }
                }
            }
            Some(_) => {
                return Err(format!("histogram `{name}` exemplars must be an object"));
            }
        }
        snapshot.histograms.push((name.clone(), buckets));
    }
    Ok(snapshot)
}

/// Renders the `,"hits":N,"evaluated":M}` tail shared by the explore-shaped
/// replies.
fn render_hits_evaluated(out: &mut String, hits: u64, evaluated: u64) {
    out.push_str(",\"hits\":");
    out.push_str(&hits.to_string());
    out.push_str(",\"evaluated\":");
    out.push_str(&evaluated.to_string());
    out.push('}');
}

/// Parses the `hits`/`evaluated` totals shared by the explore-shaped replies.
fn parse_hits_evaluated(value: &JsonValue, op: &str) -> Result<(u64, u64), String> {
    let hits = value
        .get("hits")
        .and_then(JsonValue::as_u64)
        .ok_or_else(|| format!("`{op}` response lacks `hits`"))?;
    let evaluated = value
        .get("evaluated")
        .and_then(JsonValue::as_u64)
        .ok_or_else(|| format!("`{op}` response lacks `evaluated`"))?;
    Ok((hits, evaluated))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_record() -> PointRecord {
        PointRecord {
            key: 0x1234_5678_9abc_def0,
            canonical: "kernel=fir;algo=CPA-RA;budget=32;latency=2;device=XCV1000-BG560".to_owned(),
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
            distribution: "a:16 \"b\":1".to_owned(),
        }
    }

    fn sample_stats() -> ServerStats {
        ServerStats {
            uptime_ms: 1234,
            uptime_secs: 1,
            version: "0.1.0".to_owned(),
            connections: 5,
            requests: 17,
            hits: 10,
            misses: 7,
            evaluated: 7,
            shard_records: vec![3, 0, 4, 1],
            ops: vec![
                OpStats {
                    op: "get".to_owned(),
                    count: 9,
                    p50_us: 63,
                    p99_us: 255,
                },
                OpStats {
                    op: "explore".to_owned(),
                    count: 8,
                    p50_us: 127,
                    p99_us: 1023,
                },
            ],
        }
    }

    fn sample_snapshot() -> MetricsSnapshot {
        let registry = srra_obs::Registry::new();
        registry.counter("serve_requests_total").add(7);
        registry.gauge("serve_open_connections").set(-1);
        let latency = registry.histogram("serve_op_get_latency_us");
        latency.record_micros(40);
        latency.record_micros(5_000);
        latency.record_traced(std::time::Duration::from_micros(90), "sweep-7.a");
        registry.snapshot()
    }

    #[test]
    fn requests_round_trip() {
        let requests = [
            Request::Get {
                canonical: "kernel=fir;algo=CPA-RA;budget=32;latency=2;device=XCV1000-BG560"
                    .to_owned(),
            },
            Request::MultiGet {
                canonicals: vec![
                    "kernel=fir;algo=CPA-RA;budget=32".to_owned(),
                    "x".to_owned(),
                ],
            },
            Request::Explore {
                points: vec![
                    QueryPoint::new("fir", "cpa", 32),
                    QueryPoint {
                        kernel: "mat".to_owned(),
                        algorithm: "FR-RA".to_owned(),
                        budget: 8,
                        ram_latency: 1,
                        device: "xcv300".to_owned(),
                    },
                ],
            },
            Request::MultiExplore {
                points: vec![QueryPoint::new("mat", "fr", 16)],
            },
            Request::Put {
                records: vec![sample_record(), sample_record()],
            },
            Request::Ping,
            Request::Stats,
            Request::Metrics { prometheus: false },
            Request::Metrics { prometheus: true },
            Request::Trace {
                id: "sweep-7.a".to_owned(),
            },
            Request::Series {
                last: 16,
                window_us: 0,
            },
            Request::Series {
                last: 0,
                window_us: 60_000_000,
            },
            Request::Digest,
            Request::Scan {
                shard: 3,
                offset: 128,
                limit: 64,
            },
            Request::Shutdown,
        ];
        for request in requests {
            let line = request.render();
            assert!(!line.contains('\n'), "one line per request");
            assert_eq!(Request::parse(&line).unwrap(), request, "line: {line}");
            // `render_into` appends exactly the same bytes.
            let mut buffer = String::from("prefix");
            request.render_into(&mut buffer);
            assert_eq!(buffer, format!("prefix{line}"));
        }
    }

    #[test]
    fn op_table_rows_sit_at_their_stats_position_with_unique_names_and_tags() {
        for (index, (op, name, tag)) in Op::TABLE.iter().enumerate() {
            assert_eq!(*op as usize, index, "{name}");
            assert_eq!(Op::from_name(name), Some(*op));
            assert_eq!(Op::from_tag(*tag), Some(*op));
        }
    }

    #[test]
    fn explore_points_default_latency_and_device() {
        let parsed = Request::parse(
            r#"{"op":"explore","points":[{"kernel":"fir","algo":"cpa","budget":32}]}"#,
        )
        .unwrap();
        let Request::Explore { points } = parsed else {
            panic!("wrong variant");
        };
        assert_eq!(points[0].ram_latency, 2);
        assert_eq!(points[0].device, "xcv1000");
    }

    #[test]
    fn responses_round_trip_with_bit_exact_floats() {
        let record = sample_record();
        let responses = [
            Response::Found {
                record: record.clone(),
            },
            Response::NotFound,
            Response::MultiGot {
                records: vec![Some(record.clone()), None, Some(record.clone())],
            },
            Response::Explored {
                records: vec![record.clone(), record.clone()],
                hits: 1,
                evaluated: 1,
            },
            Response::MultiExplored {
                outcomes: vec![
                    PointOutcome::Answered {
                        record: record.clone(),
                        hit: true,
                    },
                    PointOutcome::Failed {
                        error: "unknown kernel `nope`".to_owned(),
                    },
                    PointOutcome::Answered { record, hit: false },
                ],
                hits: 1,
                evaluated: 1,
            },
            Response::Stored { stored: 2 },
            Response::Pong,
            Response::Stats(sample_stats()),
            Response::Metrics(sample_snapshot()),
            Response::MetricsText {
                text: "# TYPE serve_requests_total counter\nserve_requests_total 7\n".to_owned(),
            },
            Response::Traced {
                spans: vec![
                    Span {
                        trace_id: "sweep-7.a".to_owned(),
                        span_id: 11,
                        parent_id: 0,
                        name: "explore".to_owned(),
                        start_us: 100,
                        dur_us: 900,
                        annotations: vec![("points".to_owned(), "4".to_owned())],
                    },
                    Span {
                        trace_id: "sweep-7.a".to_owned(),
                        span_id: 12,
                        parent_id: 11,
                        name: "engine.cost_model".to_owned(),
                        start_us: 400,
                        dur_us: 300,
                        annotations: Vec::new(),
                    },
                ],
            },
            Response::Traced { spans: Vec::new() },
            Response::Series {
                samples: vec![
                    SeriesSample {
                        at_us: 1_000_000,
                        metrics: sample_snapshot(),
                    },
                    SeriesSample {
                        at_us: 2_000_000,
                        metrics: sample_snapshot(),
                    },
                ],
            },
            Response::Series {
                samples: Vec::new(),
            },
            Response::SeriesDelta {
                delta: SnapshotDelta {
                    from_us: 1_000_000,
                    to_us: 2_000_000,
                    diff: sample_snapshot(),
                },
            },
            Response::Digests {
                digests: vec![
                    ShardDigest {
                        records: 3,
                        fold: 0x1234_5678_9abc_def0,
                    },
                    ShardDigest {
                        records: 0,
                        fold: 0,
                    },
                ],
            },
            Response::Scanned {
                canonicals: vec![
                    "kernel=fir;algo=CPA-RA;budget=32".to_owned(),
                    "kernel=mat;algo=FR-RA;budget=8".to_owned(),
                ],
                done: false,
            },
            Response::Scanned {
                canonicals: Vec::new(),
                done: true,
            },
            Response::ShuttingDown,
            Response::Error {
                message: "unknown kernel `nope`".to_owned(),
            },
        ];
        for response in responses {
            let line = response.render();
            assert!(!line.contains('\n'), "one line per response");
            assert_eq!(Response::parse(&line).unwrap(), response, "line: {line}");
            let mut buffer = String::from("prefix");
            response.render_into(&mut buffer);
            assert_eq!(buffer, format!("prefix{line}"));
        }
    }

    #[test]
    fn stats_totals_sum_the_shards_and_carry_op_latencies() {
        let stats = sample_stats();
        assert_eq!(stats.records(), 8);
        let rendered = stats.to_value().render();
        assert!(rendered.contains("\"records\":8"));
        assert!(rendered.contains("\"ops\":{\"get\":{\"count\":9,\"p50_us\":63,\"p99_us\":255}"));
        assert_eq!(stats.op("get").unwrap().count, 9);
        assert_eq!(stats.op("frobnicate"), None);
    }

    #[test]
    fn stats_without_ops_still_parse() {
        // A reply from a server that predates per-op latency accounting.
        let line = r#"{"ok":true,"stats":{"uptime_ms":1,"connections":2,"requests":3,"hits":1,"misses":2,"evaluated":2,"records":3,"shards":[1,2]}}"#;
        let Response::Stats(stats) = Response::parse(line).unwrap() else {
            panic!("expected stats");
        };
        assert_eq!(stats.shard_records, vec![1, 2]);
        assert!(stats.ops.is_empty());
        assert_eq!(stats.uptime_secs, 0, "derived from uptime_ms when absent");
        assert_eq!(stats.version, "", "absent on old servers");
    }

    #[test]
    fn stats_carry_uptime_version_and_shard_count() {
        let rendered = sample_stats().to_value().render();
        assert!(rendered.contains("\"uptime_secs\":1"));
        assert!(rendered.contains("\"version\":\"0.1.0\""));
        assert!(rendered.contains("\"shard_count\":4"));
    }

    #[test]
    fn trace_ids_stamp_and_strip_on_any_line() {
        let mut line = Request::Stats.render();
        stamp_trace(&mut line, "sweep-7.a");
        assert_eq!(line, r#"{"op":"stats","trace":"sweep-7.a"}"#);
        let (request, trace) = Request::parse_with_trace(&line).unwrap();
        assert_eq!(request, Request::Stats);
        assert_eq!(trace.as_deref(), Some("sweep-7.a"));

        // The traced hot-path `get` still decodes, trace included.
        let mut line = Request::Get {
            canonical: "kernel=fir;algo=CPA-RA;budget=32".to_owned(),
        }
        .render();
        stamp_trace(&mut line, "t1");
        let (request, trace) = Request::parse_with_trace(&line).unwrap();
        assert_eq!(
            request,
            Request::Get {
                canonical: "kernel=fir;algo=CPA-RA;budget=32".to_owned()
            }
        );
        assert_eq!(trace.as_deref(), Some("t1"));

        // Responses stamp the same way; `trace_suffix` locates the id.
        let mut reply = Response::Pong.render();
        stamp_trace(&mut reply, "t1");
        let (start, id) = trace_suffix(&reply).expect("stamped reply carries the id");
        assert_eq!(id, "t1");
        assert!(reply[..start].starts_with(r#"{"ok":true"#));
    }

    #[test]
    fn untraced_lines_and_bad_ids_have_no_trace() {
        assert_eq!(
            Request::parse_with_trace(r#"{"op":"ping"}"#).unwrap(),
            (Request::Ping, None)
        );
        // A canonical that *contains* the marker text is escaped on the wire,
        // so the suffix scanner never fires inside a string.
        let tricky = Request::Get {
            canonical: "x\",\"trace\":\"oops".to_owned(),
        };
        let line = tricky.render();
        assert_eq!(trace_suffix(&line), None);
        assert_eq!(Request::parse_with_trace(&line).unwrap(), (tricky, None));
        // Over-long or ill-charactered ids are not trace suffixes.
        assert!(!valid_trace_id(""));
        assert!(!valid_trace_id(&"x".repeat(TRACE_MAX_LEN + 1)));
        assert!(!valid_trace_id("no spaces"));
        assert!(valid_trace_id("ok-id_1.2"));
    }

    #[test]
    fn metrics_requests_validate_their_format() {
        assert_eq!(
            Request::parse(r#"{"op":"metrics","format":"prom"}"#).unwrap(),
            Request::Metrics { prometheus: true }
        );
        assert_eq!(
            Request::parse(r#"{"op":"metrics","format":"json"}"#).unwrap(),
            Request::Metrics { prometheus: false }
        );
        assert!(Request::parse(r#"{"op":"metrics","format":"xml"}"#).is_err());
        assert!(Request::parse(r#"{"op":"metrics","format":3}"#).is_err());
    }

    #[test]
    fn metrics_replies_reject_illegal_names_and_oversized_buckets() {
        assert!(Response::parse(r#"{"ok":true,"metrics":{"counters":{"bad name":1}}}"#).is_err());
        assert!(Response::parse(r#"{"ok":true,"metrics":{"gauges":{"g":1.5}}}"#).is_err());
        let buckets = vec!["1"; srra_obs::LATENCY_BUCKETS + 1].join(",");
        let line = format!(
            r#"{{"ok":true,"metrics":{{"histograms":{{"h":{{"buckets":[{buckets}]}}}}}}}}"#
        );
        assert!(Response::parse(&line).is_err());
        // Short bucket arrays (older peer, or trailing zeros trimmed) pad.
        let line = r#"{"ok":true,"metrics":{"histograms":{"h":{"buckets":[0,2]}}}}"#;
        let Response::Metrics(snapshot) = Response::parse(line).unwrap() else {
            panic!("expected metrics");
        };
        assert_eq!(snapshot.histogram("h").map(|h| h.count()), Some(2));
    }

    #[test]
    fn malformed_requests_are_rejected_with_messages() {
        for bad in [
            "",
            "{}",
            "not json",
            r#"{"op":"frobnicate"}"#,
            r#"{"op":"get"}"#,
            r#"{"op":"explore","points":[]}"#,
            r#"{"op":"explore","points":[{"kernel":"fir"}]}"#,
            r#"{"op":"mget"}"#,
            r#"{"op":"mget","canonicals":[]}"#,
            r#"{"op":"mget","canonicals":[42]}"#,
            r#"{"op":"mexplore"}"#,
            r#"{"op":"mexplore","points":[]}"#,
            r#"{"op":"mexplore","points":[{"algo":"cpa","budget":32}]}"#,
            r#"{"op":"put"}"#,
            r#"{"op":"put","records":[]}"#,
            r#"{"op":"put","records":[{"kernel":"fir"}]}"#,
            r#"{"op":"trace"}"#,
            r#"{"op":"trace","id":""}"#,
            r#"{"op":"trace","id":"no spaces"}"#,
            r#"{"op":"scan"}"#,
            r#"{"op":"scan","shard":"zero"}"#,
            r#"{"op":"scan","shard":0,"limit":0}"#,
            r#"{"op":"series"}"#,
            r#"{"op":"series","last":0}"#,
            r#"{"op":"series","last":4,"window_us":1000}"#,
            r#"{"op":"series","last":"four"}"#,
        ] {
            assert!(Request::parse(bad).is_err(), "accepted `{bad}`");
        }
    }
}
