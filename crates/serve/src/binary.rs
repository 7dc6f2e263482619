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
//! * `body` is the binary [`Wire`] encoding of the request or response: a
//!   one-byte variant tag followed by the variant's fields, in the field
//!   order the `protocol` module lists once for both codecs.
//!
//! A payload that fails to decode is answered with a [`Response::Error`]
//! frame and the connection *stays open* — the frame boundary was already
//! known, so the stream never desyncs (mirroring the JSON contract where a
//! malformed line still produces exactly one reply line).
//!
//! The crate-private [`read_message`] / [`decode`] and [`write_messages`]
//! are the one reader and the one writer of both codecs, for the server and
//! [`Connection`](crate::Connection) alike: neither of those knows how a
//! message of either codec is framed.

use std::io::{BufRead, Read};

use srra_explore::codec::{from_bytes, write_bytes, write_json, Wire, WireError, WireResult};

use crate::protocol::{check_trace, parse_line, stamp_trace, Message, Request, Response};

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

/// Appends one complete frame (magic + length + trace + body) to `out`.
fn frame_into<T: Wire>(out: &mut Vec<u8>, trace: Option<&str>, body: &T) -> WireResult {
    out.push(BINARY_MAGIC);
    let len_at = out.len();
    out.extend_from_slice(&[0u8; 4]);
    let start = out.len();
    match trace {
        None => out.push(0),
        Some(id) => {
            check_trace(id).map_err(WireError::Corrupt)?;
            out.push(id.len() as u8);
            out.extend_from_slice(id.as_bytes());
        }
    }
    write_bytes(out, body)?;
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
) -> WireResult {
    frame_into(out, trace, request)
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
) -> WireResult {
    frame_into(out, trace, response)
}

/// Decodes a frame payload (trace prefix + tagged body), requiring every
/// byte to be consumed.
///
/// # Errors
///
/// [`WireError::Io`] on truncation inside the payload, [`WireError::Corrupt`]
/// on bad bytes, an illegal trace id, or trailing garbage.
pub fn decode_payload<T: Wire>(payload: &[u8]) -> Result<(T, Option<String>), WireError> {
    let Some((&trace_len, rest)) = payload.split_first() else {
        return Err(WireError::Io(std::io::ErrorKind::UnexpectedEof.into()));
    };
    let trace_len = usize::from(trace_len);
    let (trace, body) = match rest.get(..trace_len) {
        Some(trace) => (trace, &rest[trace_len..]),
        None => return Err(WireError::Corrupt("trace id truncated".to_owned())),
    };
    let trace = match trace_len {
        0 => None,
        _ => {
            let id = std::str::from_utf8(trace)
                .map_err(|_| WireError::Corrupt("trace id is not UTF-8".to_owned()))?;
            check_trace(id).map_err(WireError::Corrupt)?;
            Some(id.to_owned())
        }
    };
    Ok((from_bytes(body)?, trace))
}

/// The two wire codecs: JSON lines and binary frames.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Codec {
    Json,
    Binary,
}

impl Codec {
    /// The codec's name in metrics and spans.
    pub(crate) fn name(self) -> &'static str {
        match self {
            Codec::Json => "json",
            Codec::Binary => "binary",
        }
    }
}

/// A message [`read_message`] found, in its codec: `Ok` holds a whole
/// message (a JSON line without its `\n`, or a frame's payload) for
/// [`decode`]; `Err` says why a message has no findable end (a bad frame
/// length, or a JSON line that reaches the cap), so the stream cannot be
/// resynchronised past it.
pub(crate) type Found<'a> = (Codec, Result<&'a [u8], String>);

/// Reads the next message of either codec off `reader` into `buf`: the
/// first byte picks the codec, both codecs stop at [`MAX_FRAME_LEN`] bytes,
/// and blank lines are skipped.  `None` is a clean end of the stream.
///
/// # Errors
///
/// The stream's I/O errors, `UnexpectedEof` inside a frame included.
pub(crate) fn read_message<'b, T: Message>(
    reader: &mut impl BufRead,
    buf: &'b mut Vec<u8>,
) -> std::io::Result<Option<Found<'b>>> {
    loop {
        let Some(&first) = reader.fill_buf()?.first() else {
            return Ok(None);
        };
        if first == BINARY_MAGIC {
            return match read_frame(reader, buf) {
                Ok(()) => Ok(Some((Codec::Binary, Ok(buf)))),
                Err(FrameError::Io(err)) => Err(err),
                Err(err) => Ok(Some((Codec::Binary, Err(err.to_string())))),
            };
        }
        buf.clear();
        reader
            .by_ref()
            .take(MAX_FRAME_LEN as u64 + 1)
            .read_until(b'\n', buf)?;
        if buf.last() == Some(&b'\n') {
            buf.pop();
        } else if buf.len() > MAX_FRAME_LEN {
            let message = format!("JSON {} line longer than {MAX_FRAME_LEN} bytes", T::NOUN);
            return Ok(Some((Codec::Json, Err(message))));
        }
        if !buf.iter().all(u8::is_ascii_whitespace) {
            return Ok(Some((Codec::Json, Ok(buf))));
        }
    }
}

/// Decodes a whole message [`read_message`] found and splits off its trace
/// id.  A JSON line that is not UTF-8 is malformed like any other.
///
/// # Errors
///
/// The first problem, fit for an error reply.
pub(crate) fn decode<T: Message>(
    codec: Codec,
    bytes: &[u8],
) -> Result<(T, Option<String>), String> {
    match codec {
        Codec::Binary => decode_payload(bytes).map_err(|err| err.to_string()),
        Codec::Json => std::str::from_utf8(bytes)
            .map_err(|err| format!("JSON {} line is not UTF-8: {err}", T::NOUN))
            .and_then(parse_line),
    }
}

/// Replaces `out` with `messages` in `codec`, each carrying `trace`.
///
/// # Errors
///
/// An illegal trace id, or a message over [`MAX_FRAME_LEN`] bytes.
pub(crate) fn write_messages<T: Message>(
    out: &mut Vec<u8>,
    codec: Codec,
    trace: Option<&str>,
    messages: &[T],
) -> Result<(), String> {
    out.clear();
    if codec == Codec::Binary {
        return messages
            .iter()
            .try_for_each(|message| frame_into(out, trace, message))
            .map_err(|err| err.to_string());
    }
    if let Some(id) = trace {
        check_trace(id)?;
    }
    let mut text = String::from_utf8(std::mem::take(out)).expect("a cleared buffer is UTF-8");
    let written = messages.iter().try_for_each(|message| {
        let start = text.len();
        write_json(&mut text, message);
        if let Some(id) = trace {
            stamp_trace(&mut text, id);
        }
        let len = text.len() - start;
        text.push('\n');
        if len > MAX_FRAME_LEN {
            return Err(format!(
                "JSON line of {len} bytes exceeds the {MAX_FRAME_LEN} cap"
            ));
        }
        Ok(())
    });
    *out = text.into_bytes();
    written
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::Op;
    use srra_explore::PointRecord;

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
}
