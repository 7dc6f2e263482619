//! The binary wire codec: length-prefixed frames carrying the same
//! [`Request`]/[`Response`] protocol as the JSON lines, without the text
//! tax.
//!
//! # Frame layout
//!
//! ```text
//! frame   := magic:u8 len:u32le payload[len]
//! payload := trace_len:u8 trace[trace_len] body
//! body    := tag:u8 fields...
//! ```
//!
//! * `magic` is [`BINARY_MAGIC`] (`0xB1`) — a byte that can never begin a
//!   JSON request line (`{` is `0x7B`, and blank/whitespace bytes are also
//!   distinct), which is the whole negotiation rule: the server sniffs the
//!   first byte of each buffered request and picks the codec per frame, so
//!   existing JSON clients keep working unchanged on the same port.
//! * `len` counts the payload bytes (everything after the 5-byte header)
//!   and must be `1 ..=` [`MAX_FRAME_LEN`]; a zero or oversized length is
//!   unrecoverable (the stream cannot be resynchronised) and closes the
//!   connection after one final error reply.
//! * `trace` is the optional trace id (see [`crate::valid_trace_id`]),
//!   echoed verbatim on the reply frame — the binary twin of the JSON
//!   `"trace"` member; `trace_len` 0 means untraced.
//! * `body` is the [`WireSerde`] encoding of the request or response: a
//!   one-byte variant tag followed by the variant's fields in declaration
//!   order, built from the primitives in [`srra_explore::codec`].
//!
//! A payload that fails to decode is answered with a [`Response::Error`]
//! frame and the connection *stays open* — the frame boundary was already
//! known, so the stream never desyncs (mirroring the JSON contract where a
//! malformed line still produces exactly one reply line).

use std::io::Read;

use srra_explore::codec::{read_len, write_seq_len, write_str, WireError, WireSerde};
use srra_explore::PointRecord;
use srra_obs::{
    valid_metric_name, HistogramSnapshot, MetricsSnapshot, SeriesSample, SnapshotDelta, Span,
};

use crate::protocol::{
    valid_trace_id, Op, OpStats, PointOutcome, QueryPoint, Request, Response, ServerStats,
    ShardDigest,
};

/// First byte of every binary frame.  `0xB1` can never open a JSON request
/// (those start with `{`, whitespace or nothing), so one peeked byte decides
/// the codec.
pub const BINARY_MAGIC: u8 = 0xB1;

/// Largest accepted frame payload (64 MiB) — far above any legitimate
/// request or reply, low enough that a corrupt length header cannot ask the
/// server to buffer gigabytes.
pub const MAX_FRAME_LEN: usize = 64 << 20;

/// Errors reading one frame off the wire.
#[derive(Debug)]
pub enum FrameError {
    /// The stream failed or ended mid-frame; the connection is unusable.
    Io(std::io::Error),
    /// The header declared a zero or over-cap payload length; the stream
    /// cannot be resynchronised (the next frame boundary is unknowable).
    BadLength(usize),
    /// The first byte was not [`BINARY_MAGIC`] — the peer is not speaking
    /// the binary codec.
    BadMagic(u8),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Io(err) => write!(f, "binary frame I/O error: {err}"),
            FrameError::BadLength(len) => {
                write!(f, "binary frame length {len} outside 1..={MAX_FRAME_LEN}")
            }
            FrameError::BadMagic(byte) => write!(
                f,
                "expected the binary frame magic {BINARY_MAGIC:#04x}, got {byte:#04x}"
            ),
        }
    }
}

impl std::error::Error for FrameError {}

impl From<std::io::Error> for FrameError {
    fn from(err: std::io::Error) -> Self {
        FrameError::Io(err)
    }
}

/// Reads one complete frame — magic byte included — into `payload`
/// (cleared and reused).
///
/// # Errors
///
/// [`FrameError::Io`] when the stream fails or ends mid-frame,
/// [`FrameError::BadLength`] when the header is malformed.  The caller must
/// close the connection on either (after answering `BadLength` with one
/// error frame if it can).
pub fn read_frame(reader: &mut impl Read, payload: &mut Vec<u8>) -> Result<(), FrameError> {
    let mut header = [0u8; 5];
    reader.read_exact(&mut header)?;
    if header[0] != BINARY_MAGIC {
        return Err(FrameError::BadMagic(header[0]));
    }
    let len = u32::from_le_bytes([header[1], header[2], header[3], header[4]]) as usize;
    if len == 0 || len > MAX_FRAME_LEN {
        return Err(FrameError::BadLength(len));
    }
    payload.clear();
    payload.resize(len, 0);
    reader.read_exact(payload)?;
    Ok(())
}

/// Appends one complete frame (magic + length + trace + body) to `out`,
/// encoding the body through `body`.
fn frame_into(
    out: &mut Vec<u8>,
    trace: Option<&str>,
    body: impl FnOnce(&mut Vec<u8>) -> Result<(), WireError>,
) -> Result<(), WireError> {
    out.push(BINARY_MAGIC);
    let len_at = out.len();
    out.extend_from_slice(&[0u8; 4]);
    let start = out.len();
    match trace {
        None => out.push(0),
        Some(id) => {
            if !valid_trace_id(id) {
                return Err(WireError::Corrupt(format!("illegal trace id {id:?}")));
            }
            out.push(id.len() as u8);
            out.extend_from_slice(id.as_bytes());
        }
    }
    body(out)?;
    let len = out.len() - start;
    if len > MAX_FRAME_LEN {
        return Err(WireError::Corrupt(format!(
            "frame payload of {len} bytes exceeds the {MAX_FRAME_LEN} cap"
        )));
    }
    out[len_at..len_at + 4].copy_from_slice(&(len as u32).to_le_bytes());
    Ok(())
}

/// Appends one request frame to `out` (not cleared — pipelining callers
/// append several frames into one buffer).
///
/// # Errors
///
/// [`WireError::Corrupt`] on an illegal trace id or over-cap body; writing
/// to a `Vec` cannot fail.
pub fn encode_request_frame(
    out: &mut Vec<u8>,
    trace: Option<&str>,
    request: &Request,
) -> Result<(), WireError> {
    frame_into(out, trace, |buf| request.serialize_into(buf))
}

/// Appends one response frame to `out` (not cleared).
///
/// # Errors
///
/// As [`encode_request_frame`].
pub fn encode_response_frame(
    out: &mut Vec<u8>,
    trace: Option<&str>,
    response: &Response,
) -> Result<(), WireError> {
    frame_into(out, trace, |buf| response.serialize_into(buf))
}

/// Decodes a frame payload (trace prefix + tagged body), requiring every
/// byte to be consumed.
///
/// # Errors
///
/// [`WireError::Io`] on truncation inside the payload, [`WireError::Corrupt`]
/// on bad bytes, an illegal trace id, or trailing garbage.
pub fn decode_payload<T: WireSerde>(payload: &[u8]) -> Result<(T, Option<String>), WireError> {
    let mut reader = payload;
    let trace_len = u8::deserialize_from(&mut reader)? as usize;
    let trace = if trace_len == 0 {
        None
    } else {
        let bytes = reader
            .get(..trace_len)
            .ok_or_else(|| WireError::Corrupt("trace id truncated".to_owned()))?;
        let id = std::str::from_utf8(bytes)
            .map_err(|_| WireError::Corrupt("trace id is not UTF-8".to_owned()))?;
        if !valid_trace_id(id) {
            return Err(WireError::Corrupt(format!("illegal trace id {id:?}")));
        }
        reader = &reader[trace_len..];
        Some(id.to_owned())
    };
    let value = T::deserialize_from(&mut reader)?;
    if !reader.is_empty() {
        return Err(WireError::Corrupt(format!(
            "{} trailing bytes after the frame body",
            reader.len()
        )));
    }
    Ok((value, trace))
}

impl WireSerde for QueryPoint {
    fn serialize_into(&self, out: &mut impl std::io::Write) -> Result<(), WireError> {
        write_str(out, &self.kernel)?;
        write_str(out, &self.algorithm)?;
        self.budget.serialize_into(out)?;
        self.ram_latency.serialize_into(out)?;
        write_str(out, &self.device)
    }

    fn deserialize_from(reader: &mut impl Read) -> Result<Self, WireError> {
        Ok(Self {
            kernel: String::deserialize_from(reader)?,
            algorithm: String::deserialize_from(reader)?,
            budget: u64::deserialize_from(reader)?,
            ram_latency: u64::deserialize_from(reader)?,
            device: String::deserialize_from(reader)?,
        })
    }
}

impl WireSerde for Request {
    fn serialize_into(&self, out: &mut impl std::io::Write) -> Result<(), WireError> {
        self.op().tag().serialize_into(out)?;
        match self {
            Request::Get { canonical } => write_str(out, canonical),
            Request::MultiGet { canonicals } => canonicals.serialize_into(out),
            Request::Explore { points } | Request::MultiExplore { points } => {
                points.serialize_into(out)
            }
            Request::Put { records } => records.serialize_into(out),
            Request::Metrics { prometheus } => prometheus.serialize_into(out),
            Request::Trace { id } => write_str(out, id),
            Request::Series { last, window_us } => {
                last.serialize_into(out)?;
                window_us.serialize_into(out)
            }
            Request::Scan {
                shard,
                offset,
                limit,
            } => {
                shard.serialize_into(out)?;
                offset.serialize_into(out)?;
                limit.serialize_into(out)
            }
            Request::Ping | Request::Stats | Request::Digest | Request::Shutdown => Ok(()),
        }
    }

    fn deserialize_from(reader: &mut impl Read) -> Result<Self, WireError> {
        /// Reads a batch, rejecting an empty one as the JSON codec does.
        fn batch<T: WireSerde>(
            reader: &mut impl Read,
            op: Op,
            item: &str,
        ) -> Result<Vec<T>, WireError> {
            let items = Vec::<T>::deserialize_from(reader)?;
            if items.is_empty() {
                return Err(WireError::Corrupt(format!(
                    "`{}` needs at least one {item}",
                    op.name()
                )));
            }
            Ok(items)
        }
        let tag = u8::deserialize_from(reader)?;
        match Op::from_tag(tag) {
            Some(Op::Get) => Ok(Request::Get {
                canonical: String::deserialize_from(reader)?,
            }),
            Some(Op::MultiGet) => Ok(Request::MultiGet {
                canonicals: batch(reader, Op::MultiGet, "canonical")?,
            }),
            Some(Op::Explore) => Ok(Request::Explore {
                points: batch(reader, Op::Explore, "point")?,
            }),
            Some(Op::MultiExplore) => Ok(Request::MultiExplore {
                points: batch(reader, Op::MultiExplore, "point")?,
            }),
            Some(Op::Put) => Ok(Request::Put {
                records: batch(reader, Op::Put, "record")?,
            }),
            Some(Op::Ping) => Ok(Request::Ping),
            Some(Op::Stats) => Ok(Request::Stats),
            Some(Op::Metrics) => Ok(Request::Metrics {
                prometheus: bool::deserialize_from(reader)?,
            }),
            Some(Op::Trace) => {
                let id = String::deserialize_from(reader)?;
                if !valid_trace_id(&id) {
                    return Err(WireError::Corrupt(format!("illegal trace id {id:?}")));
                }
                Ok(Request::Trace { id })
            }
            Some(Op::Series) => {
                let last = u64::deserialize_from(reader)?;
                let window_us = u64::deserialize_from(reader)?;
                if (last == 0) == (window_us == 0) {
                    return Err(WireError::Corrupt(
                        "`series` needs exactly one of `last` or `window_us`, non-zero".to_owned(),
                    ));
                }
                Ok(Request::Series { last, window_us })
            }
            Some(Op::Digest) => Ok(Request::Digest),
            Some(Op::Scan) => {
                let shard = u64::deserialize_from(reader)?;
                let offset = u64::deserialize_from(reader)?;
                let limit = u64::deserialize_from(reader)?;
                if limit == 0 {
                    return Err(WireError::Corrupt(
                        "`scan` limit must be at least 1".to_owned(),
                    ));
                }
                Ok(Request::Scan {
                    shard,
                    offset,
                    limit,
                })
            }
            Some(Op::Shutdown) => Ok(Request::Shutdown),
            Some(Op::Invalid) | None => Err(WireError::Corrupt(format!(
                "unknown request tag {tag:#04x}"
            ))),
        }
    }
}

impl WireSerde for PointOutcome {
    fn serialize_into(&self, out: &mut impl std::io::Write) -> Result<(), WireError> {
        match self {
            PointOutcome::Answered { record, hit } => {
                0u8.serialize_into(out)?;
                hit.serialize_into(out)?;
                record.serialize_into(out)
            }
            PointOutcome::Failed { error } => {
                1u8.serialize_into(out)?;
                write_str(out, error)
            }
        }
    }

    fn deserialize_from(reader: &mut impl Read) -> Result<Self, WireError> {
        match u8::deserialize_from(reader)? {
            0 => Ok(PointOutcome::Answered {
                hit: bool::deserialize_from(reader)?,
                record: PointRecord::deserialize_from(reader)?,
            }),
            1 => Ok(PointOutcome::Failed {
                error: String::deserialize_from(reader)?,
            }),
            other => Err(WireError::Corrupt(format!(
                "unknown outcome tag {other:#04x}"
            ))),
        }
    }
}

impl WireSerde for OpStats {
    fn serialize_into(&self, out: &mut impl std::io::Write) -> Result<(), WireError> {
        write_str(out, &self.op)?;
        self.count.serialize_into(out)?;
        self.p50_us.serialize_into(out)?;
        self.p99_us.serialize_into(out)
    }

    fn deserialize_from(reader: &mut impl Read) -> Result<Self, WireError> {
        Ok(Self {
            op: String::deserialize_from(reader)?,
            count: u64::deserialize_from(reader)?,
            p50_us: u64::deserialize_from(reader)?,
            p99_us: u64::deserialize_from(reader)?,
        })
    }
}

impl WireSerde for ServerStats {
    fn serialize_into(&self, out: &mut impl std::io::Write) -> Result<(), WireError> {
        self.uptime_ms.serialize_into(out)?;
        self.uptime_secs.serialize_into(out)?;
        write_str(out, &self.version)?;
        self.connections.serialize_into(out)?;
        self.requests.serialize_into(out)?;
        self.hits.serialize_into(out)?;
        self.misses.serialize_into(out)?;
        self.evaluated.serialize_into(out)?;
        write_seq_len(out, self.shard_records.len())?;
        for &count in &self.shard_records {
            (count as u64).serialize_into(out)?;
        }
        self.ops.serialize_into(out)
    }

    fn deserialize_from(reader: &mut impl Read) -> Result<Self, WireError> {
        let uptime_ms = u64::deserialize_from(reader)?;
        let uptime_secs = u64::deserialize_from(reader)?;
        let version = String::deserialize_from(reader)?;
        let connections = u64::deserialize_from(reader)?;
        let requests = u64::deserialize_from(reader)?;
        let hits = u64::deserialize_from(reader)?;
        let misses = u64::deserialize_from(reader)?;
        let evaluated = u64::deserialize_from(reader)?;
        let shard_records = Vec::<u64>::deserialize_from(reader)?
            .into_iter()
            .map(|count| count as usize)
            .collect();
        Ok(Self {
            uptime_ms,
            uptime_secs,
            version,
            connections,
            requests,
            hits,
            misses,
            evaluated,
            shard_records,
            ops: Vec::<OpStats>::deserialize_from(reader)?,
        })
    }
}

// `WireSerde` (from `srra_explore`) cannot be implemented for the foreign
// `MetricsSnapshot` (from `srra_obs`) — orphan rule — so the snapshot
// encoding lives in a pair of free functions.
fn write_snapshot(
    out: &mut impl std::io::Write,
    snapshot: &MetricsSnapshot,
) -> Result<(), WireError> {
    write_seq_len(out, snapshot.counters.len())?;
    for (name, count) in &snapshot.counters {
        write_str(out, name)?;
        count.serialize_into(out)?;
    }
    write_seq_len(out, snapshot.gauges.len())?;
    for (name, level) in &snapshot.gauges {
        write_str(out, name)?;
        level.serialize_into(out)?;
    }
    write_seq_len(out, snapshot.histograms.len())?;
    for (name, histogram) in &snapshot.histograms {
        write_str(out, name)?;
        histogram.buckets().to_vec().serialize_into(out)?;
        // Exemplars ride as a sparse (bucket index, trace id) list.
        let exemplars: Vec<(usize, &str)> = histogram
            .exemplars()
            .iter()
            .enumerate()
            .filter_map(|(index, id)| id.as_deref().map(|id| (index, id)))
            .collect();
        write_seq_len(out, exemplars.len())?;
        for (index, id) in exemplars {
            (index as u8).serialize_into(out)?;
            write_str(out, id)?;
        }
    }
    Ok(())
}

fn read_metric_name(reader: &mut impl Read) -> Result<String, WireError> {
    let name = String::deserialize_from(reader)?;
    if !valid_metric_name(&name) {
        return Err(WireError::Corrupt(format!("illegal metric name {name:?}")));
    }
    Ok(name)
}

fn read_snapshot(reader: &mut impl Read) -> Result<MetricsSnapshot, WireError> {
    let mut snapshot = MetricsSnapshot::default();
    let counters = read_len(reader, srra_explore::codec::MAX_SEQ_LEN, "counters")?;
    for _ in 0..counters {
        let name = read_metric_name(reader)?;
        snapshot
            .counters
            .push((name, u64::deserialize_from(reader)?));
    }
    let gauges = read_len(reader, srra_explore::codec::MAX_SEQ_LEN, "gauges")?;
    for _ in 0..gauges {
        let name = read_metric_name(reader)?;
        snapshot.gauges.push((name, i64::deserialize_from(reader)?));
    }
    let histograms = read_len(reader, srra_explore::codec::MAX_SEQ_LEN, "histograms")?;
    for _ in 0..histograms {
        let name = read_metric_name(reader)?;
        let buckets = Vec::<u64>::deserialize_from(reader)?;
        let mut histogram = HistogramSnapshot::from_buckets(&buckets).ok_or_else(|| {
            WireError::Corrupt(format!("histogram `{name}` carries too many buckets"))
        })?;
        let exemplars = read_len(reader, srra_explore::codec::MAX_SEQ_LEN, "exemplars")?;
        for _ in 0..exemplars {
            let index = u8::deserialize_from(reader)? as usize;
            let id = String::deserialize_from(reader)?;
            // Out-of-range indices are ignored, as in the JSON decoding.
            histogram.set_exemplar(index, id);
        }
        snapshot.histograms.push((name, histogram));
    }
    Ok(snapshot)
}

/// Encodes one [`Span`] (a foreign `srra_obs` type — orphan rule, same
/// pattern as the snapshot pair above).
fn write_span(out: &mut impl std::io::Write, span: &Span) -> Result<(), WireError> {
    write_str(out, &span.trace_id)?;
    span.span_id.serialize_into(out)?;
    span.parent_id.serialize_into(out)?;
    write_str(out, &span.name)?;
    span.start_us.serialize_into(out)?;
    span.dur_us.serialize_into(out)?;
    write_seq_len(out, span.annotations.len())?;
    for (key, value) in &span.annotations {
        write_str(out, key)?;
        write_str(out, value)?;
    }
    Ok(())
}

fn read_span(reader: &mut impl Read) -> Result<Span, WireError> {
    let trace_id = String::deserialize_from(reader)?;
    let span_id = u64::deserialize_from(reader)?;
    let parent_id = u64::deserialize_from(reader)?;
    let name = String::deserialize_from(reader)?;
    let start_us = u64::deserialize_from(reader)?;
    let dur_us = u64::deserialize_from(reader)?;
    let count = read_len(reader, srra_explore::codec::MAX_SEQ_LEN, "annotations")?;
    let mut annotations = Vec::with_capacity(count.min(64));
    for _ in 0..count {
        annotations.push((
            String::deserialize_from(reader)?,
            String::deserialize_from(reader)?,
        ));
    }
    Ok(Span {
        trace_id,
        span_id,
        parent_id,
        name,
        start_us,
        dur_us,
        annotations,
    })
}

const RESP_FOUND: u8 = 1;
const RESP_NOT_FOUND: u8 = 2;
const RESP_MGOT: u8 = 3;
const RESP_EXPLORED: u8 = 4;
const RESP_MEXPLORED: u8 = 5;
const RESP_STORED: u8 = 6;
const RESP_PONG: u8 = 7;
const RESP_STATS: u8 = 8;
const RESP_METRICS: u8 = 9;
const RESP_METRICS_TEXT: u8 = 10;
const RESP_SHUTTING_DOWN: u8 = 11;
const RESP_ERROR: u8 = 12;
const RESP_TRACED: u8 = 13;
const RESP_DIGESTS: u8 = 14;
const RESP_SCANNED: u8 = 15;
const RESP_SERIES: u8 = 16;
const RESP_DELTA: u8 = 17;

impl WireSerde for ShardDigest {
    fn serialize_into(&self, out: &mut impl std::io::Write) -> Result<(), WireError> {
        self.records.serialize_into(out)?;
        self.fold.serialize_into(out)
    }

    fn deserialize_from(reader: &mut impl Read) -> Result<Self, WireError> {
        Ok(Self {
            records: u64::deserialize_from(reader)?,
            fold: u64::deserialize_from(reader)?,
        })
    }
}

impl WireSerde for Response {
    fn serialize_into(&self, out: &mut impl std::io::Write) -> Result<(), WireError> {
        match self {
            Response::Found { record } => {
                RESP_FOUND.serialize_into(out)?;
                record.serialize_into(out)
            }
            Response::NotFound => RESP_NOT_FOUND.serialize_into(out),
            Response::MultiGot { records } => {
                RESP_MGOT.serialize_into(out)?;
                records.serialize_into(out)
            }
            Response::Explored {
                records,
                hits,
                evaluated,
            } => {
                RESP_EXPLORED.serialize_into(out)?;
                records.serialize_into(out)?;
                hits.serialize_into(out)?;
                evaluated.serialize_into(out)
            }
            Response::MultiExplored {
                outcomes,
                hits,
                evaluated,
            } => {
                RESP_MEXPLORED.serialize_into(out)?;
                outcomes.serialize_into(out)?;
                hits.serialize_into(out)?;
                evaluated.serialize_into(out)
            }
            Response::Stored { stored } => {
                RESP_STORED.serialize_into(out)?;
                stored.serialize_into(out)
            }
            Response::Pong => RESP_PONG.serialize_into(out),
            Response::Stats(stats) => {
                RESP_STATS.serialize_into(out)?;
                stats.serialize_into(out)
            }
            Response::Metrics(snapshot) => {
                RESP_METRICS.serialize_into(out)?;
                write_snapshot(out, snapshot)
            }
            Response::MetricsText { text } => {
                RESP_METRICS_TEXT.serialize_into(out)?;
                write_str(out, text)
            }
            Response::Traced { spans } => {
                RESP_TRACED.serialize_into(out)?;
                write_seq_len(out, spans.len())?;
                for span in spans {
                    write_span(out, span)?;
                }
                Ok(())
            }
            Response::Series { samples } => {
                RESP_SERIES.serialize_into(out)?;
                write_seq_len(out, samples.len())?;
                for sample in samples {
                    sample.at_us.serialize_into(out)?;
                    write_snapshot(out, &sample.metrics)?;
                }
                Ok(())
            }
            Response::SeriesDelta { delta } => {
                RESP_DELTA.serialize_into(out)?;
                delta.from_us.serialize_into(out)?;
                delta.to_us.serialize_into(out)?;
                write_snapshot(out, &delta.diff)
            }
            Response::Digests { digests } => {
                RESP_DIGESTS.serialize_into(out)?;
                digests.serialize_into(out)
            }
            Response::Scanned { canonicals, done } => {
                RESP_SCANNED.serialize_into(out)?;
                canonicals.serialize_into(out)?;
                done.serialize_into(out)
            }
            Response::ShuttingDown => RESP_SHUTTING_DOWN.serialize_into(out),
            Response::Error { message } => {
                RESP_ERROR.serialize_into(out)?;
                write_str(out, message)
            }
        }
    }

    fn deserialize_from(reader: &mut impl Read) -> Result<Self, WireError> {
        match u8::deserialize_from(reader)? {
            RESP_FOUND => Ok(Response::Found {
                record: PointRecord::deserialize_from(reader)?,
            }),
            RESP_NOT_FOUND => Ok(Response::NotFound),
            RESP_MGOT => Ok(Response::MultiGot {
                records: Vec::<Option<PointRecord>>::deserialize_from(reader)?,
            }),
            RESP_EXPLORED => Ok(Response::Explored {
                records: Vec::<PointRecord>::deserialize_from(reader)?,
                hits: u64::deserialize_from(reader)?,
                evaluated: u64::deserialize_from(reader)?,
            }),
            RESP_MEXPLORED => Ok(Response::MultiExplored {
                outcomes: Vec::<PointOutcome>::deserialize_from(reader)?,
                hits: u64::deserialize_from(reader)?,
                evaluated: u64::deserialize_from(reader)?,
            }),
            RESP_STORED => Ok(Response::Stored {
                stored: u64::deserialize_from(reader)?,
            }),
            RESP_PONG => Ok(Response::Pong),
            RESP_STATS => Ok(Response::Stats(ServerStats::deserialize_from(reader)?)),
            RESP_METRICS => Ok(Response::Metrics(read_snapshot(reader)?)),
            RESP_METRICS_TEXT => Ok(Response::MetricsText {
                text: String::deserialize_from(reader)?,
            }),
            RESP_TRACED => {
                let count = read_len(reader, srra_explore::codec::MAX_SEQ_LEN, "spans")?;
                let mut spans = Vec::with_capacity(count.min(1024));
                for _ in 0..count {
                    spans.push(read_span(reader)?);
                }
                Ok(Response::Traced { spans })
            }
            RESP_SERIES => {
                let count = read_len(reader, srra_explore::codec::MAX_SEQ_LEN, "series")?;
                let mut samples = Vec::with_capacity(count.min(1024));
                for _ in 0..count {
                    samples.push(SeriesSample {
                        at_us: u64::deserialize_from(reader)?,
                        metrics: read_snapshot(reader)?,
                    });
                }
                Ok(Response::Series { samples })
            }
            RESP_DELTA => Ok(Response::SeriesDelta {
                delta: SnapshotDelta {
                    from_us: u64::deserialize_from(reader)?,
                    to_us: u64::deserialize_from(reader)?,
                    diff: read_snapshot(reader)?,
                },
            }),
            RESP_DIGESTS => Ok(Response::Digests {
                digests: Vec::<ShardDigest>::deserialize_from(reader)?,
            }),
            RESP_SCANNED => Ok(Response::Scanned {
                canonicals: Vec::<String>::deserialize_from(reader)?,
                done: bool::deserialize_from(reader)?,
            }),
            RESP_SHUTTING_DOWN => Ok(Response::ShuttingDown),
            RESP_ERROR => Ok(Response::Error {
                message: String::deserialize_from(reader)?,
            }),
            other => Err(WireError::Corrupt(format!(
                "unknown response tag {other:#04x}"
            ))),
        }
    }
}

/// Whether `buffer` (a read buffer already known to start a request) holds at
/// least one *complete* request of either codec — the flush-deferral test of
/// the pipelined server loop, generalised to mixed codecs.
pub(crate) fn holds_complete_request(buffer: &[u8]) -> bool {
    let mut rest = buffer;
    // Skip leading blank bytes (the JSON path ignores blank lines).
    while let [b, tail @ ..] = rest {
        if b.is_ascii_whitespace() {
            rest = tail;
        } else {
            break;
        }
    }
    match rest.first() {
        None => false,
        Some(&BINARY_MAGIC) => {
            if rest.len() < 5 {
                return false;
            }
            let len = u32::from_le_bytes([rest[1], rest[2], rest[3], rest[4]]) as usize;
            // A malformed length still counts as "something to answer
            // immediately" — the server will reply and close without waiting
            // for more bytes.
            len == 0 || len > MAX_FRAME_LEN || rest.len() >= 5 + len
        }
        Some(_) => rest.contains(&b'\n'),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use srra_obs::Registry;

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
            ops: vec![OpStats {
                op: "get".to_owned(),
                count: 9,
                p50_us: 63,
                p99_us: 255,
            }],
        }
    }

    fn sample_snapshot() -> MetricsSnapshot {
        let registry = Registry::new();
        registry.counter("serve_requests_total").add(7);
        registry.gauge("serve_open_connections").set(-1);
        let latency = registry.histogram("serve_op_get_latency_us");
        latency.record_micros(40);
        latency.record_micros(5_000);
        latency.record_traced(std::time::Duration::from_micros(90), "sweep-7.a");
        registry.snapshot()
    }

    fn every_request() -> Vec<Request> {
        vec![
            Request::Get {
                canonical: "kernel=fir;algo=CPA-RA;budget=32;latency=2;device=XCV1000-BG560"
                    .to_owned(),
            },
            Request::Get {
                canonical: "nasty \"quoted\" \\ \n canonical — ünïcødé".to_owned(),
            },
            Request::MultiGet {
                canonicals: vec!["a".to_owned(), String::new(), "c".to_owned()],
            },
            Request::Explore {
                points: vec![
                    QueryPoint::new("fir", "cpa", 32),
                    QueryPoint {
                        kernel: "mat".to_owned(),
                        algorithm: "FR-RA".to_owned(),
                        budget: u64::MAX,
                        ram_latency: 0,
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
        ]
    }

    fn every_response() -> Vec<Response> {
        let record = sample_record();
        let mut extreme = sample_record();
        extreme.clock_period_ns = f64::NAN;
        extreme.execution_time_us = f64::INFINITY;
        vec![
            Response::Found {
                record: record.clone(),
            },
            Response::Found { record: extreme },
            Response::NotFound,
            Response::MultiGot {
                records: vec![Some(record.clone()), None, Some(record.clone())],
            },
            Response::MultiGot {
                records: vec![None],
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
                canonicals: vec!["kernel=fir;algo=CPA-RA;budget=32".to_owned()],
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
        ]
    }

    fn frame_round_trip<T>(
        value: &T,
        trace: Option<&str>,
        encode: impl Fn(&mut Vec<u8>, Option<&str>, &T) -> Result<(), WireError>,
    ) -> (T, Option<String>)
    where
        T: WireSerde,
    {
        let mut wire = Vec::new();
        encode(&mut wire, trace, value).expect("encodes");
        let mut reader = wire.as_slice();
        let mut payload = Vec::new();
        read_frame(&mut reader, &mut payload).expect("frame reads");
        assert!(reader.is_empty(), "frame consumed exactly");
        decode_payload(&payload).expect("payload decodes")
    }

    #[test]
    fn every_request_variant_round_trips() {
        for request in every_request() {
            let (back, trace) = frame_round_trip(&request, None, encode_request_frame);
            assert_eq!(back, request);
            assert_eq!(trace, None);
            let (back, trace) = frame_round_trip(&request, Some("t-1.a"), encode_request_frame);
            assert_eq!(back, request);
            assert_eq!(trace.as_deref(), Some("t-1.a"));
        }
    }

    #[test]
    fn every_response_variant_round_trips() {
        for response in every_response() {
            let (back, trace) = frame_round_trip(&response, Some("x"), encode_response_frame);
            assert_eq!(trace.as_deref(), Some("x"));
            // NaN != NaN under PartialEq: compare via the JSON rendering,
            // which is bit-faithful for floats.
            assert_eq!(back.render(), response.render());
        }
    }

    #[test]
    fn truncated_and_oversized_frames_are_rejected() {
        let mut wire = Vec::new();
        encode_request_frame(&mut wire, None, &Request::Ping).unwrap();
        // Truncate mid-payload.
        for cut in [1, 3, wire.len() - 1] {
            let mut reader = &wire[..cut];
            let mut payload = Vec::new();
            assert!(matches!(
                read_frame(&mut reader, &mut payload),
                Err(FrameError::Io(_))
            ));
        }
        // Zero-length header.
        let zero = [BINARY_MAGIC, 0, 0, 0, 0];
        let mut reader = zero.as_slice();
        assert!(matches!(
            read_frame(&mut reader, &mut Vec::new()),
            Err(FrameError::BadLength(0))
        ));
        // Oversized header.
        let mut oversized = vec![BINARY_MAGIC];
        oversized.extend_from_slice(&(u32::MAX).to_le_bytes());
        let mut reader = oversized.as_slice();
        assert!(matches!(
            read_frame(&mut reader, &mut Vec::new()),
            Err(FrameError::BadLength(_))
        ));
    }

    #[test]
    fn corrupt_payloads_are_rejected_without_reading_past_the_frame() {
        // Unknown tag.
        let payload = [0u8, 0xEE];
        assert!(matches!(
            decode_payload::<Request>(&payload),
            Err(WireError::Corrupt(_))
        ));
        // Trailing garbage after a valid body.
        let mut wire = Vec::new();
        encode_request_frame(&mut wire, None, &Request::Ping).unwrap();
        let mut payload = wire[5..].to_vec();
        payload.push(0);
        assert!(decode_payload::<Request>(&payload).is_err());
        // Empty batches are rejected like their JSON twins.
        let mut body = vec![0u8, Op::MultiGet.tag()];
        body.extend_from_slice(&0u32.to_le_bytes());
        assert!(matches!(
            decode_payload::<Request>(&body),
            Err(WireError::Corrupt(_))
        ));
        // Bad trace bytes.
        let payload = [3u8, b'a', b' ', b'b', Op::Ping.tag()];
        assert!(matches!(
            decode_payload::<Request>(&payload),
            Err(WireError::Corrupt(_))
        ));
    }

    #[test]
    fn cross_codec_equivalence_binary_and_json_agree() {
        // A reply decoded from the binary codec carries the same record a
        // JSON reply parses to, byte-identical when re-rendered as JSON.
        let record = sample_record();
        let response = Response::Found {
            record: record.clone(),
        };
        let json_line = response.render();
        let from_json = Response::parse(&json_line).unwrap();

        let mut wire = Vec::new();
        encode_response_frame(&mut wire, None, &response).unwrap();
        let mut reader = wire.as_slice();
        let mut payload = Vec::new();
        read_frame(&mut reader, &mut payload).unwrap();
        let (from_binary, _) = decode_payload::<Response>(&payload).unwrap();

        assert_eq!(from_binary, from_json);
        assert_eq!(
            from_binary.render(),
            json_line,
            "re-render is byte-identical"
        );
        let Response::Found { record: back } = from_binary else {
            panic!("wrong variant");
        };
        assert_eq!(back.to_json_line(), record.to_json_line());
    }

    #[test]
    fn magic_byte_can_never_open_a_json_request() {
        assert_ne!(BINARY_MAGIC, b'{');
        assert!(!BINARY_MAGIC.is_ascii_whitespace());
        for request in every_request() {
            let line = request.render();
            assert_ne!(line.as_bytes()[0], BINARY_MAGIC, "{line}");
        }
    }

    #[test]
    fn complete_request_detection_handles_both_codecs() {
        assert!(!holds_complete_request(b""));
        assert!(!holds_complete_request(b"   \n  "));
        assert!(!holds_complete_request(b"{\"op\":\"ping\"}"));
        assert!(holds_complete_request(b"{\"op\":\"ping\"}\n"));
        assert!(holds_complete_request(b"  \n{\"op\":\"ping\"}\n"));

        let mut wire = Vec::new();
        encode_request_frame(&mut wire, None, &Request::Ping).unwrap();
        assert!(holds_complete_request(&wire));
        assert!(!holds_complete_request(&wire[..wire.len() - 1]));
        assert!(!holds_complete_request(&wire[..3]));
        // A malformed length is "complete": the server answers and closes.
        assert!(holds_complete_request(&[BINARY_MAGIC, 0, 0, 0, 0]));
        assert!(holds_complete_request(&[BINARY_MAGIC, 255, 255, 255, 255]));
    }
}
