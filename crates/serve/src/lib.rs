//! Sharded result store and concurrent query serving over the `srra`
//! exploration cache.
//!
//! The exploration engine of [`srra_explore`] caches every evaluated design
//! point in a content-addressed [`srra_explore::ResultStore`].  This crate
//! scales that substrate in two layers:
//!
//! 1. [`ShardedStore`] — the cache split over N fixed-header binary segment
//!    files (records routed by `key % N`; see
//!    [`srra_explore::SegmentStore`] for the on-disk record grammar), each
//!    shard behind its own read/write lock so any number of concurrent warm
//!    lookups proceed in parallel against the in-memory index (appends
//!    briefly exclude their own shard only), plus a lock file guarding the
//!    directory against concurrent processes.  Legacy JSONL shard
//!    directories open unchanged (the `.jsonl` siblings are folded in
//!    read-only); [`ShardedStore::merge_file`] folds a legacy single-file
//!    cache into the shards and [`ShardedStore::compact`] deduplicates,
//!    re-routes and rewrites dirty or legacy shards to pure segment form.
//! 2. [`Server`] — a thread-pool TCP front end (`std::net` only, no async
//!    runtime) speaking two interchangeable wire codecs — line-delimited
//!    JSON and a length-prefixed binary framing, negotiated per frame by
//!    the first byte ([`BINARY_MAGIC`] vs anything else) so clients of both
//!    kinds share one listener.  The ops: `get` a record by
//!    canonical design-point string, `explore` a batch of points (hits
//!    answered from the shards, misses evaluated through the
//!    [`srra_explore::evaluate_point`] seam exactly once — concurrent
//!    requests for the same missing point block on an in-flight table rather
//!    than re-evaluating), batched `mget` / `mexplore` (many lookups or
//!    points per wire line), `put` (store pre-evaluated records verbatim —
//!    the cluster replication tee), `ping` (liveness probe), `stats` (with
//!    per-op latency quantiles), `metrics` (the full [`srra_obs`] telemetry
//!    snapshot, as structured JSON or Prometheus text exposition), `trace`
//!    (the spans the flight recorder retains for a trace id — see
//!    `docs/observability.md`), `series` (the last N timestamped snapshots
//!    of the opt-in metrics sampler, or the rate/quantile-ready delta over a
//!    trailing window — the time dimension behind `srra cluster top` and
//!    the SLO evaluator), `digest` (per-shard anti-entropy digests:
//!    record count plus an order-insensitive hash fold, so two replicas can
//!    compare contents without shipping them) and `scan` (offset-paged
//!    canonical strings of one shard — the diff-streaming substrate for
//!    cluster repair and rebalance), and graceful `shutdown` (which also closes
//!    idle keep-alive connections so draining never waits on clients).  Any
//!    request line may carry a `trace` id — the server echoes it on the
//!    reply, emits a span tree for the request into the
//!    [`srra_obs::TraceBuffer`] flight recorder, attributes its slow-query
//!    log lines to it, and attaches it to the latency histogram bucket the
//!    request lands in as an exemplar.
//!
//! The wire protocol is specified in `docs/serving.md`; [`Request`] /
//! [`Response`] are its single shape definition, and the `protocol` module
//! lists each type's fields once for both codecs (the
//! [`srra_explore::Wire`] trait); `binary` adds only the frame envelope.
//! [`Connection`]
//! is the keep-alive, pipelining client ([`Connection::connect`] for JSON
//! lines, [`Connection::connect_binary`] for the binary codec, and
//! [`Connection::connect_with_codec`] to pick the codec and an I/O
//! deadline).
//!
//! # Quickstart
//!
//! ```
//! use srra_serve::{Connection, QueryPoint, Server, ServerConfig};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let dir = std::env::temp_dir().join(format!("srra-serve-doc-{}", std::process::id()));
//! # let _ = std::fs::remove_dir_all(&dir);
//! let server = Server::bind(&ServerConfig::ephemeral(&dir))?;
//! let addr = server.local_addr().to_string();
//! let handle = std::thread::spawn(move || server.run());
//!
//! let mut connection = Connection::connect(&addr)?;
//! let reply = connection.explore(&[QueryPoint::new("fir", "cpa", 32)])?;
//! assert_eq!(reply.records.len(), 1);
//! assert_eq!(reply.evaluated, 1, "cold shard: the miss is evaluated");
//! connection.shutdown()?;
//! handle.join().expect("server thread")?;
//! # std::fs::remove_dir_all(&dir)?;
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod binary;
mod client;
mod protocol;
mod server;
mod shard;

pub use binary::{
    decode_payload, encode_request_frame, encode_response_frame, read_frame, FrameError,
    BINARY_MAGIC, MAX_FRAME_LEN,
};
pub use client::{ClientError, Connection, ExploreReply, MultiExploreReply};
pub use protocol::{
    stamp_trace, valid_trace_id, OpStats, PointOutcome, QueryPoint, Request, Response, ServerStats,
    ShardDigest, TRACE_MAX_LEN,
};
pub use server::{canonical_for, device_by_name, ServeError, Server, ServerConfig, ServerReport};
pub use shard::{CompactOutcome, MergeOutcome, ShardError, ShardedStore};

// The wire protocol's JSON value type lives in `srra_explore`, beside the
// JSONL cache encoding it shares; re-exported for serve-layer callers.
pub use srra_explore::JsonValue;

// The span type rides on `trace` replies, and the series types on `series`
// replies; re-exported so serve-layer callers need not depend on `srra_obs`
// directly.
pub use srra_obs::{SeriesSample, SnapshotDelta, Span};
