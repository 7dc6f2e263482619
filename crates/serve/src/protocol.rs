//! The wire protocol spoken between `srra serve` and its clients: the
//! request and reply types and their one field list.
//!
//! Every request and reply travels in either of two codecs, picked per
//! frame by its first byte: one JSON object on one `\n`-terminated line, or
//! one binary frame (see the `binary` module).  Both encode the fields this
//! module lists once, in the [`Wire`] impls below (see [`srra_explore::codec`]
//! for the two codecs).  A connection may carry any number of
//! request/response pairs in order, and clients may *pipeline*: write
//! several requests before reading any replies — the server answers strictly
//! in request order.  The batched `mget` / `mexplore` ops amortise framing
//! and syscalls further by answering many lookups or points in one reply.
//! The full specification lives in `docs/serving.md`.
//!
//! All render methods come in a pair: `render` (fresh `String`) and
//! `render_into` (append to a caller-owned buffer).  The server and the
//! keep-alive client read and write messages of both codecs through the one
//! reader and writer of the `binary` module.

use srra_explore::codec::{
    from_json_with, to_json, write_json, Decoder, Encoder, Wire, WireError, WireResult,
};
use srra_explore::PointRecord;
use srra_obs::{MetricsSnapshot, SeriesSample, SnapshotDelta, Span};

/// Longest accepted `trace` id, in bytes.
pub const TRACE_MAX_LEN: usize = 64;

/// Whether `id` is a legal wire trace id: 1 ..= [`TRACE_MAX_LEN`] bytes of
/// `[A-Za-z0-9._-]`.
///
/// The restricted alphabet is what makes trace propagation cheap: a valid id
/// never needs JSON escaping, so [`stamp_trace`] appends it with plain byte
/// pushes.
pub fn valid_trace_id(id: &str) -> bool {
    !id.is_empty()
        && id.len() <= TRACE_MAX_LEN
        && id
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'-' | b'_' | b'.'))
}

/// The envelope trace rule of both codecs: a request or reply may carry a
/// trace id, and a present one must be valid.
pub(crate) fn check_trace(id: &str) -> Result<(), String> {
    if valid_trace_id(id) {
        Ok(())
    } else {
        Err(format!(
            "illegal trace id {id:?}: want 1..={TRACE_MAX_LEN} bytes of [A-Za-z0-9._-]"
        ))
    }
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

/// A [`Request`] or a [`Response`], as the shared reader and writer of the
/// `binary` module carry them; `NOUN` names it in the reader's errors.
pub(crate) trait Message: Wire {
    const NOUN: &'static str;
}

impl Message for Request {
    const NOUN: &'static str = "request";
}

impl Message for Response {
    const NOUN: &'static str = "reply";
}

/// Decodes one JSON line into `T` plus its optional top-level `trace`
/// member, which may sit at any position.
pub(crate) fn parse_line<T: Wire>(line: &str) -> Result<(T, Option<String>), String> {
    let (decoded, trace) = from_json_with(line, "trace")?;
    if let Some(id) = &trace {
        check_trace(id)?;
    }
    Ok((decoded, trace))
}

/// The `latency` a point names when it names none.
const DEFAULT_LATENCY: u64 = 2;
/// The `device` a point names when it names none.
const DEFAULT_DEVICE: &str = "xcv1000";

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
            ram_latency: DEFAULT_LATENCY,
            device: DEFAULT_DEVICE.to_owned(),
        }
    }
}

impl Wire for QueryPoint {
    fn encode<E: Encoder>(&self, e: &mut E) -> WireResult {
        e.str("kernel", &self.kernel)?;
        e.str("algo", &self.algorithm)?;
        e.u64("budget", self.budget)?;
        e.u64("latency", self.ram_latency)?;
        e.str("device", &self.device)
    }

    fn decode<D: Decoder>(d: &mut D) -> WireResult<Self> {
        Ok(Self {
            kernel: d.str("kernel")?,
            algorithm: d.str("algo")?,
            budget: d.u64("budget")?,
            ram_latency: d.u64_or("latency", DEFAULT_LATENCY)?,
            device: if d.has("device") {
                d.str("device")?
            } else {
                DEFAULT_DEVICE.to_owned()
            },
        })
    }
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
        to_json(self)
    }

    /// Encodes the request into `out` (no trailing newline), reusing the
    /// buffer's allocation.
    pub fn render_into(&self, out: &mut String) {
        write_json(out, self);
    }

    /// Decodes one request line.
    ///
    /// # Errors
    ///
    /// Returns a user-facing description of the first problem (malformed JSON,
    /// unknown op, missing fields, a failed request check).
    pub fn parse(line: &str) -> Result<Self, String> {
        Ok(parse_line(line)?.0)
    }

    /// Decodes one request line together with its optional `trace` id, a
    /// top-level member at any position.
    ///
    /// # Errors
    ///
    /// As [`Request::parse`], and an invalid trace id.
    pub fn parse_with_trace(line: &str) -> Result<(Self, Option<String>), String> {
        parse_line(line)
    }

    /// The request checks, run once after either decoder.
    fn check(&self) -> Result<(), String> {
        let empty = match self {
            Request::MultiGet { canonicals } => canonicals.is_empty().then_some("canonical"),
            Request::Explore { points } | Request::MultiExplore { points } => {
                points.is_empty().then_some("point")
            }
            Request::Put { records } => records.is_empty().then_some("record"),
            Request::Trace { id } if !valid_trace_id(id) => {
                return Err(format!(
                    "`trace` id must be 1..={TRACE_MAX_LEN} bytes of [A-Za-z0-9._-]"
                ))
            }
            Request::Series { last, window_us } if (*last == 0) == (*window_us == 0) => {
                return Err(
                    "`series` needs exactly one of `last` or `window_us`, non-zero".to_owned(),
                )
            }
            Request::Scan { limit: 0, .. } => {
                return Err("`scan` limit must be at least 1".to_owned())
            }
            _ => None,
        };
        match empty {
            Some(item) => Err(format!("`{}` needs at least one {item}", self.op().name())),
            None => Ok(()),
        }
    }
}

impl Wire for Request {
    fn encode<E: Encoder>(&self, e: &mut E) -> WireResult {
        let op = self.op();
        e.variant(op.tag(), |e| e.str("op", op.name()))?;
        match self {
            Request::Get { canonical } => e.str("canonical", canonical),
            Request::MultiGet { canonicals } => e.strs("canonicals", canonicals),
            Request::Explore { points } | Request::MultiExplore { points } => {
                e.values("points", points)
            }
            Request::Put { records } => e.values("records", records),
            // JSON names the format only when it is not the default.
            Request::Metrics { prometheus: true } if E::JSON => e.str("format", "prometheus"),
            Request::Metrics { .. } if E::JSON => Ok(()),
            Request::Metrics { prometheus } => e.bool("format", *prometheus),
            Request::Trace { id } => e.str("id", id),
            Request::Series { last, window_us } => {
                // JSON writes only the non-zero one of the two.
                if !E::JSON || *window_us == 0 {
                    e.u64("last", *last)?;
                }
                if !E::JSON || *window_us > 0 {
                    e.u64("window_us", *window_us)?;
                }
                Ok(())
            }
            Request::Scan {
                shard,
                offset,
                limit,
            } => {
                e.u64("shard", *shard)?;
                e.u64("offset", *offset)?;
                e.u64("limit", *limit)
            }
            Request::Ping | Request::Stats | Request::Digest | Request::Shutdown => Ok(()),
        }
    }

    fn decode<D: Decoder>(d: &mut D) -> WireResult<Self> {
        let tag = d.variant(|d| {
            let name = d.str("op")?;
            Op::from_name(&name)
                .filter(|op| *op != Op::Invalid)
                .map(Op::tag)
                .ok_or_else(|| WireError::Corrupt(format!("unknown op `{name}`")))
        })?;
        let unknown = || WireError::Corrupt(format!("unknown request tag {tag:#04x}"));
        let op = Op::from_tag(tag).ok_or_else(unknown)?;
        let request = match op {
            Op::Get => Request::Get {
                canonical: d.str("canonical")?,
            },
            Op::MultiGet => Request::MultiGet {
                canonicals: d.strs("canonicals")?,
            },
            Op::Explore => Request::Explore {
                points: d.values("points")?,
            },
            Op::MultiExplore => Request::MultiExplore {
                points: d.values("points")?,
            },
            Op::Put => Request::Put {
                records: d.values("records")?,
            },
            Op::Ping => Request::Ping,
            Op::Stats => Request::Stats,
            Op::Metrics if D::JSON && !d.has("format") => Request::Metrics { prometheus: false },
            Op::Metrics if D::JSON => Request::Metrics {
                prometheus: match d.str("format")?.as_str() {
                    "json" => false,
                    "prometheus" | "prom" => true,
                    other => {
                        return Err(WireError::Corrupt(format!(
                            "`metrics` format must be \"json\" or \"prometheus\", got {other:?}"
                        )))
                    }
                },
            },
            Op::Metrics => Request::Metrics {
                prometheus: d.bool("format")?,
            },
            Op::Trace => Request::Trace { id: d.str("id")? },
            Op::Series => Request::Series {
                last: d.u64_or("last", 0)?,
                window_us: d.u64_or("window_us", 0)?,
            },
            Op::Digest => Request::Digest,
            Op::Scan => Request::Scan {
                shard: d.u64("shard")?,
                offset: d.u64_or("offset", 0)?,
                limit: d.u64_or("limit", 1024)?,
            },
            Op::Shutdown => Request::Shutdown,
            Op::Invalid => return Err(unknown()),
        };
        request.check().map_err(WireError::Corrupt)?;
        Ok(request)
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
}

impl Wire for ShardDigest {
    fn encode<E: Encoder>(&self, e: &mut E) -> WireResult {
        e.u64("records", self.records)?;
        e.u64("fold", self.fold)
    }

    fn decode<D: Decoder>(d: &mut D) -> WireResult<Self> {
        Ok(Self {
            records: d.u64("records")?,
            fold: d.u64("fold")?,
        })
    }
}

impl Wire for ServerStats {
    fn encode<E: Encoder>(&self, e: &mut E) -> WireResult {
        e.u64("uptime_ms", self.uptime_ms)?;
        e.u64("uptime_secs", self.uptime_secs)?;
        e.str("version", &self.version)?;
        e.u64("connections", self.connections)?;
        e.u64("requests", self.requests)?;
        e.u64("hits", self.hits)?;
        e.u64("misses", self.misses)?;
        e.u64("evaluated", self.evaluated)?;
        if E::JSON {
            // Derived totals for scripts; decoders ignore them.
            e.u64("records", self.records() as u64)?;
            e.u64("shard_count", self.shard_records.len() as u64)?;
        }
        e.seq("shards", self.shard_records.len(), |e| {
            self.shard_records
                .iter()
                .try_for_each(|&count| e.u64("", count as u64))
        })?;
        e.map("ops", self.ops.len(), |e| {
            self.ops.iter().try_for_each(|entry| {
                e.key(&entry.op)?;
                e.object("", |e| {
                    e.u64("count", entry.count)?;
                    e.u64("p50_us", entry.p50_us)?;
                    e.u64("p99_us", entry.p99_us)
                })
            })
        })
    }

    fn decode<D: Decoder>(d: &mut D) -> WireResult<Self> {
        // `uptime_secs`, `version` and `ops` are absent from older servers'
        // JSON: derive or default them.
        let uptime_ms = d.u64("uptime_ms")?;
        Ok(Self {
            uptime_ms,
            uptime_secs: d.u64_or("uptime_secs", uptime_ms / 1000)?,
            version: if d.has("version") {
                d.str("version")?
            } else {
                String::new()
            },
            connections: d.u64("connections")?,
            requests: d.u64("requests")?,
            hits: d.u64("hits")?,
            misses: d.u64("misses")?,
            evaluated: d.u64("evaluated")?,
            shard_records: d.seq("shards", |d| Ok(d.u64("")? as usize))?,
            ops: if d.has("ops") {
                d.map("ops", |d| {
                    let op = d.key()?;
                    d.object("", |d| {
                        Ok(OpStats {
                            op,
                            count: d.u64("count")?,
                            p50_us: d.u64("p50_us")?,
                            p99_us: d.u64("p99_us")?,
                        })
                    })
                })?
            } else {
                Vec::new()
            },
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
    /// The point resolved; `hit` is `true` when the point's first lookup
    /// found the record: stored before this request arrived, or by an earlier
    /// point of this request (a repeated point).  `hit == false` means the
    /// point was evaluated on this request's account — by this request itself
    /// *or by a concurrent one it waited on* (matching the `evaluated`
    /// counter of [`Response::Explored`]).
    Answered {
        /// The stored or freshly evaluated record.
        record: PointRecord,
        /// Whether the point's first lookup found the record in the shards.
        hit: bool,
    },
    /// The point failed to resolve (unknown kernel/algorithm/device or a
    /// store error); the rest of the batch is unaffected.
    Failed {
        /// A user-facing description of the problem.
        error: String,
    },
}

impl Wire for PointOutcome {
    fn encode<E: Encoder>(&self, e: &mut E) -> WireResult {
        match self {
            PointOutcome::Answered { record, hit } => {
                e.variant(0, |_| Ok(()))?;
                e.bool("hit", *hit)?;
                e.value("record", record)
            }
            PointOutcome::Failed { error } => {
                e.variant(1, |_| Ok(()))?;
                e.str("error", error)
            }
        }
    }

    fn decode<D: Decoder>(d: &mut D) -> WireResult<Self> {
        // JSON names a failed point by its `error` member.
        match d.variant(|d| Ok(u8::from(d.has("error"))))? {
            0 => Ok(PointOutcome::Answered {
                hit: d.bool("hit")?,
                record: d.value("record")?,
            }),
            1 => Ok(PointOutcome::Failed {
                error: d.str("error")?,
            }),
            other => Err(WireError::Corrupt(format!(
                "unknown outcome tag {other:#04x}"
            ))),
        }
    }
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

/// One reply variant, in [`Reply::TABLE`] order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Reply {
    Error,
    Found,
    NotFound,
    MultiGot,
    MultiExplored,
    Explored,
    Stored,
    Pong,
    Stats,
    Metrics,
    MetricsText,
    Traced,
    Series,
    SeriesDelta,
    Digests,
    Scanned,
    ShuttingDown,
}

impl Reply {
    /// Every reply variant with its binary tag and the JSON member that
    /// names it, in JSON decode order.  Replies are `{"ok":true,…}`, errors
    /// `{"ok":false,"error":…}`; `found` names both `Found` and `NotFound`
    /// by its value, and `pong` and `shutting_down` are constant `true`
    /// flags.
    const TABLE: [(Reply, u8, &'static str); 17] = [
        (Reply::Error, 12, "error"),
        (Reply::Found, 1, "found"),
        (Reply::NotFound, 2, "found"),
        (Reply::MultiGot, 3, "got"),
        (Reply::MultiExplored, 5, "outcomes"),
        (Reply::Explored, 4, "records"),
        (Reply::Stored, 6, "stored"),
        (Reply::Pong, 7, "pong"),
        (Reply::Stats, 8, "stats"),
        (Reply::Metrics, 9, "metrics"),
        (Reply::MetricsText, 10, "exposition"),
        (Reply::Traced, 13, "spans"),
        (Reply::Series, 16, "series"),
        (Reply::SeriesDelta, 17, "delta"),
        (Reply::Digests, 14, "digests"),
        (Reply::Scanned, 15, "canonicals"),
        (Reply::ShuttingDown, 11, "shutting_down"),
    ];

    fn tag(self) -> u8 {
        Self::TABLE[self as usize].1
    }

    fn from_tag(tag: u8) -> Option<Reply> {
        Self::TABLE
            .iter()
            .find(|entry| entry.1 == tag)
            .map(|entry| entry.0)
    }
}

impl Response {
    fn reply(&self) -> Reply {
        match self {
            Response::Found { .. } => Reply::Found,
            Response::NotFound => Reply::NotFound,
            Response::MultiGot { .. } => Reply::MultiGot,
            Response::Explored { .. } => Reply::Explored,
            Response::MultiExplored { .. } => Reply::MultiExplored,
            Response::Stored { .. } => Reply::Stored,
            Response::Pong => Reply::Pong,
            Response::Stats(_) => Reply::Stats,
            Response::Metrics(_) => Reply::Metrics,
            Response::MetricsText { .. } => Reply::MetricsText,
            Response::Traced { .. } => Reply::Traced,
            Response::Series { .. } => Reply::Series,
            Response::SeriesDelta { .. } => Reply::SeriesDelta,
            Response::Digests { .. } => Reply::Digests,
            Response::Scanned { .. } => Reply::Scanned,
            Response::ShuttingDown => Reply::ShuttingDown,
            Response::Error { .. } => Reply::Error,
        }
    }

    /// Encodes the response as one JSON line (no trailing newline).
    pub fn render(&self) -> String {
        to_json(self)
    }

    /// Encodes the response into `out` (no trailing newline), reusing the
    /// buffer's allocation.  Embedded records are the same bytes as their
    /// JSONL cache lines.
    pub fn render_into(&self, out: &mut String) {
        write_json(out, self);
    }

    /// Decodes one response line.
    ///
    /// # Errors
    ///
    /// Returns a description of the first problem (malformed JSON or an
    /// unrecognised shape).
    pub fn parse(line: &str) -> Result<Self, String> {
        Ok(parse_line(line)?.0)
    }

    /// Decodes one response line together with the `trace` id it echoes.
    ///
    /// # Errors
    ///
    /// As [`Response::parse`], and an invalid trace id.
    pub fn parse_with_trace(line: &str) -> Result<(Self, Option<String>), String> {
        parse_line(line)
    }
}

impl Wire for Response {
    fn encode<E: Encoder>(&self, e: &mut E) -> WireResult {
        let reply = self.reply();
        e.variant(reply.tag(), |e| {
            e.bool("ok", reply != Reply::Error)?;
            match reply {
                Reply::Found | Reply::NotFound => e.bool("found", reply == Reply::Found),
                Reply::Pong => e.bool("pong", true),
                Reply::ShuttingDown => e.bool("shutting_down", true),
                _ => Ok(()),
            }
        })?;
        match self {
            Response::Found { record } => e.value("record", record),
            Response::NotFound | Response::Pong | Response::ShuttingDown => Ok(()),
            Response::MultiGot { records } => e.seq("got", records.len(), |e| {
                records.iter().try_for_each(|record| {
                    e.option("", record.is_some())?;
                    record.as_ref().map_or(Ok(()), |record| e.value("", record))
                })
            }),
            Response::Explored {
                records,
                hits,
                evaluated,
            } => {
                e.values("records", records)?;
                e.u64("hits", *hits)?;
                e.u64("evaluated", *evaluated)
            }
            Response::MultiExplored {
                outcomes,
                hits,
                evaluated,
            } => {
                e.values("outcomes", outcomes)?;
                e.u64("hits", *hits)?;
                e.u64("evaluated", *evaluated)
            }
            Response::Stored { stored } => e.u64("stored", *stored),
            Response::Stats(stats) => e.value("stats", stats),
            Response::Metrics(snapshot) => e.value("metrics", snapshot),
            Response::MetricsText { text } => e.str("exposition", text),
            Response::Traced { spans } => e.values("spans", spans),
            Response::Series { samples } => e.values("series", samples),
            Response::SeriesDelta { delta } => e.value("delta", delta),
            Response::Digests { digests } => e.values("digests", digests),
            Response::Scanned { canonicals, done } => {
                e.strs("canonicals", canonicals)?;
                e.bool("done", *done)
            }
            Response::Error { message } => e.str("error", message),
        }
    }

    fn decode<D: Decoder>(d: &mut D) -> WireResult<Self> {
        let tag = d.variant(|d| {
            if !d.bool("ok")? {
                return Ok(Reply::Error.tag());
            }
            Reply::TABLE[1..]
                .iter()
                .find(|entry| d.has(entry.2))
                .map(|entry| entry.1)
                .ok_or_else(|| WireError::Corrupt("unrecognised response shape".to_owned()))
        })?;
        let reply = Reply::from_tag(tag)
            .ok_or_else(|| WireError::Corrupt(format!("unknown response tag {tag:#04x}")))?;
        Ok(match reply {
            Reply::Found | Reply::NotFound => {
                let found = if D::JSON {
                    d.bool("found")?
                } else {
                    reply == Reply::Found
                };
                if found {
                    Response::Found {
                        record: d.value("record")?,
                    }
                } else {
                    Response::NotFound
                }
            }
            Reply::MultiGot => Response::MultiGot {
                records: d.seq("got", |d| {
                    if d.option("")? {
                        d.value("").map(Some)
                    } else {
                        Ok(None)
                    }
                })?,
            },
            Reply::Explored => Response::Explored {
                records: d.values("records")?,
                hits: d.u64("hits")?,
                evaluated: d.u64("evaluated")?,
            },
            Reply::MultiExplored => Response::MultiExplored {
                outcomes: d.values("outcomes")?,
                hits: d.u64("hits")?,
                evaluated: d.u64("evaluated")?,
            },
            Reply::Stored => Response::Stored {
                stored: d.u64("stored")?,
            },
            Reply::Pong => Response::Pong,
            Reply::Stats => Response::Stats(d.value("stats")?),
            Reply::Metrics => Response::Metrics(d.value("metrics")?),
            Reply::MetricsText => Response::MetricsText {
                text: d.str("exposition")?,
            },
            Reply::Traced => Response::Traced {
                spans: d.values("spans")?,
            },
            Reply::Series => Response::Series {
                samples: d.values("series")?,
            },
            Reply::SeriesDelta => Response::SeriesDelta {
                delta: d.value("delta")?,
            },
            Reply::Digests => Response::Digests {
                digests: d.values("digests")?,
            },
            Reply::Scanned => Response::Scanned {
                canonicals: d.strs("canonicals")?,
                done: d.bool("done")?,
            },
            Reply::ShuttingDown => Response::ShuttingDown,
            Reply::Error => Response::Error {
                message: if d.has("error") {
                    d.str("error")?
                } else {
                    "unspecified server error".to_owned()
                },
            },
        })
    }
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
        let rendered = Response::Stats(stats.clone()).render();
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
        let rendered = Response::Stats(sample_stats()).render();
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

        // Responses stamp the same way and decode with their id.
        let mut reply = Response::Pong.render();
        stamp_trace(&mut reply, "t1");
        assert!(reply.starts_with(r#"{"ok":true"#));
        let (response, trace) = Response::parse_with_trace(&reply).unwrap();
        assert_eq!(response, Response::Pong);
        assert_eq!(trace.as_deref(), Some("t1"));
    }

    #[test]
    fn trace_members_sit_anywhere_and_bad_ids_are_refused() {
        for line in [
            r#"{"trace":"abc","op":"ping"}"#,
            r#"{"op":"ping", "trace":"abc"}"#,
        ] {
            let (request, trace) = Request::parse_with_trace(line).unwrap();
            assert_eq!(request, Request::Ping, "{line}");
            assert_eq!(trace.as_deref(), Some("abc"), "{line}");
        }
        let err = Request::parse_with_trace(r#"{"op":"ping","trace":"no spaces"}"#)
            .expect_err("an invalid trace id is refused");
        assert!(err.contains("illegal trace id"), "{err}");
        // The binary envelope refuses the same id with the same rule.
        let payload = [9u8, b'n', b'o', b' ', b's', b'p', b'a', b'c', b'e', b's', 6];
        let err = crate::decode_payload::<Request>(&payload).expect_err("refused");
        assert!(err.to_string().contains("illegal trace id"), "{err}");
    }

    #[test]
    fn untraced_lines_and_bad_ids_have_no_trace() {
        assert_eq!(
            Request::parse_with_trace(r#"{"op":"ping"}"#).unwrap(),
            (Request::Ping, None)
        );
        // A canonical that *contains* the marker text is escaped on the wire,
        // so it is never read as a trace member.
        let tricky = Request::Get {
            canonical: "x\",\"trace\":\"oops".to_owned(),
        };
        let line = tricky.render();
        assert_eq!(Request::parse_with_trace(&line).unwrap(), (tricky, None));
        // Over-long or ill-charactered ids are not trace ids.
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
