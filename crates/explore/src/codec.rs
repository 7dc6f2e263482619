//! The one field encoding of every wire and storage value, shared by the
//! binary and the JSON codec.
//!
//! The workspace's `serde` is an offline no-op shim, so the codecs are
//! hand-rolled behind a small trait triple.  A value implements [`Wire`]:
//! one `encode` that lists its fields through an [`Encoder`], one `decode`
//! that reads them back through a [`Decoder`].  Two codecs implement the
//! pair, and both are generic and monomorphised, never `dyn`:
//!
//! * **binary** (segment files, wire frames): fields in declaration order,
//!   names ignored; integers little-endian, `f64` as its IEEE-754 bit
//!   pattern (NaN payloads, infinities and signed zero round-trip
//!   bit-exactly), `bool` one byte (`0`/`1`), strings a `u32` byte length
//!   plus UTF-8, sequences and maps a `u32` count plus their elements,
//!   options and variants a one-byte discriminant;
//! * **JSON** (JSONL cache files, wire lines): every value an object whose
//!   members are the field names, sequences arrays, maps objects keyed by
//!   entry, `f64` through `{:?}` (the shortest text that parses back to the
//!   same bits).  Decoding tokenizes the document once into the JSON
//!   reader's flat token tape, which validates it and caps its nesting at
//!   [`JsonValue::MAX_DEPTH`](crate::JsonValue::MAX_DEPTH), then reads each
//!   member by name off its object's member index, allocating only the
//!   `String`s the value owns.  Members may come in any order, unknown ones
//!   are ignored, and a duplicated one reads as its first occurrence.
//!
//! Where the two encodings differ beyond that (derived JSON fields, omitted
//! defaults, the [`PointRecord`] key as hex text), the field list branches
//! on [`Encoder::JSON`] / [`Decoder::JSON`] in exactly one place.
//!
//! Binary length headers are checked against hard caps ([`MAX_TEXT_LEN`],
//! [`MAX_SEQ_LEN`]) before any allocation, so a corrupt or hostile header
//! cannot ask the decoder to reserve gigabytes.

use std::fmt::Write as _;

use srra_obs::{
    valid_metric_name, HistogramSnapshot, MetricsSnapshot, SeriesSample, SnapshotDelta, Span,
    LATENCY_BUCKETS,
};

use crate::json::{render_string, Kind, Tape};
use crate::store::PointRecord;

/// Longest string the decoder will allocate for (16 MiB).
///
/// The longest legitimate strings on the wire are Prometheus expositions and
/// `distribution` fields — well under a megabyte.  A length header above this
/// cap is corruption, not data.
pub const MAX_TEXT_LEN: usize = 16 << 20;

/// Most elements a single decoded sequence may claim (1 << 20).
///
/// Batched ops carry at most a few thousand entries; a count above this cap
/// is corruption, not data.
pub const MAX_SEQ_LEN: usize = 1 << 20;

/// Errors of both codecs.
#[derive(Debug)]
pub enum WireError {
    /// The input ended mid-value (an `UnexpectedEof` I/O error).
    Io(std::io::Error),
    /// The bytes were read but do not decode: a bad discriminant, an
    /// over-cap length header, invalid UTF-8, a missing or mistyped JSON
    /// member, or trailing garbage.
    Corrupt(String),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Io(err) => write!(f, "binary codec I/O error: {err}"),
            WireError::Corrupt(message) => write!(f, "corrupt binary value: {message}"),
        }
    }
}

impl std::error::Error for WireError {}

/// The result of an encode or decode step.
pub type WireResult<T = ()> = Result<T, WireError>;

fn corrupt(message: impl Into<String>) -> WireError {
    WireError::Corrupt(message.into())
}

/// A value with one field list for both codecs.
pub trait Wire: Sized {
    /// Writes the value's fields through `e`.
    ///
    /// # Errors
    ///
    /// [`WireError::Corrupt`] when a string or sequence exceeds what the
    /// binary headers can carry; the JSON codec never fails.
    fn encode<E: Encoder>(&self, e: &mut E) -> WireResult;

    /// Reads the value's fields back through `d`.
    ///
    /// # Errors
    ///
    /// [`WireError::Io`] on truncated binary input, [`WireError::Corrupt`]
    /// on bytes or members that do not decode.
    fn decode<D: Decoder>(d: &mut D) -> WireResult<Self>;
}

/// The writing half of a codec.  `name` is the field's JSON member name;
/// the empty name writes a bare value (a sequence element or map entry).
pub trait Encoder: Sized {
    /// Whether this is the JSON codec: the switch for the few JSON-only
    /// rules of a field list.
    const JSON: bool;

    /// A small integer.
    fn u8(&mut self, name: &str, value: u8) -> WireResult;
    /// An unsigned integer.
    fn u64(&mut self, name: &str, value: u64) -> WireResult;
    /// A signed integer.
    fn i64(&mut self, name: &str, value: i64) -> WireResult;
    /// A float, bit-exact in both codecs.
    fn f64(&mut self, name: &str, value: f64) -> WireResult;
    /// A boolean.
    fn bool(&mut self, name: &str, value: bool) -> WireResult;
    /// A string.
    fn str(&mut self, name: &str, value: &str) -> WireResult;
    /// A 64-bit key: `"0x%016x"` text in JSON, a plain integer in binary.
    fn hex(&mut self, name: &str, value: u64) -> WireResult;
    /// An enum's discriminant: `tag` in binary; in JSON `json` writes
    /// whatever members name the variant.
    fn variant(&mut self, tag: u8, json: impl FnOnce(&mut Self) -> WireResult) -> WireResult;
    /// A nested value whose fields `body` writes.
    fn object(&mut self, name: &str, body: impl FnOnce(&mut Self) -> WireResult) -> WireResult;
    /// A sequence of `len` bare values that `body` writes.
    fn seq(
        &mut self,
        name: &str,
        len: usize,
        body: impl FnOnce(&mut Self) -> WireResult,
    ) -> WireResult;
    /// A map of `len` entries that `body` writes, each a [`key`](Self::key)
    /// then a bare value: a JSON object keyed by entry, a counted sequence in
    /// binary.
    fn map(
        &mut self,
        name: &str,
        len: usize,
        body: impl FnOnce(&mut Self) -> WireResult,
    ) -> WireResult;
    /// The key of the next map entry: a member name in JSON, a string in
    /// binary.
    fn key(&mut self, key: &str) -> WireResult;
    /// An option's discriminant; a present value follows under the same
    /// name.  JSON writes `null` for an absent one.
    fn option(&mut self, name: &str, present: bool) -> WireResult;

    /// A nested [`Wire`] value.
    fn value<T: Wire>(&mut self, name: &str, value: &T) -> WireResult {
        self.object(name, |e| value.encode(e))
    }

    /// A sequence of [`Wire`] values.
    fn values<T: Wire>(&mut self, name: &str, items: &[T]) -> WireResult {
        self.seq(name, items.len(), |e| {
            items.iter().try_for_each(|item| e.value("", item))
        })
    }

    /// A sequence of strings.
    fn strs(&mut self, name: &str, items: &[String]) -> WireResult {
        self.seq(name, items.len(), |e| {
            items.iter().try_for_each(|item| e.str("", item))
        })
    }
}

/// The reading half of a codec, the mirror of [`Encoder`].
pub trait Decoder: Sized {
    /// Whether this is the JSON codec.
    const JSON: bool;

    /// Whether the field is present: a JSON member may be absent, a binary
    /// field never is.
    fn has(&self, name: &str) -> bool;
    /// See [`Encoder::u8`].
    fn u8(&mut self, name: &str) -> WireResult<u8>;
    /// See [`Encoder::u64`].
    fn u64(&mut self, name: &str) -> WireResult<u64>;
    /// See [`Encoder::i64`].
    fn i64(&mut self, name: &str) -> WireResult<i64>;
    /// See [`Encoder::f64`].
    fn f64(&mut self, name: &str) -> WireResult<f64>;
    /// See [`Encoder::bool`].
    fn bool(&mut self, name: &str) -> WireResult<bool>;
    /// See [`Encoder::str`].
    fn str(&mut self, name: &str) -> WireResult<String>;
    /// See [`Encoder::hex`].
    fn hex(&mut self, name: &str) -> WireResult<u64>;
    /// See [`Encoder::variant`]: binary reads the tag, JSON asks `json`.
    fn variant(&mut self, json: impl FnOnce(&mut Self) -> WireResult<u8>) -> WireResult<u8>;
    /// See [`Encoder::object`].
    fn object<T>(
        &mut self,
        name: &str,
        body: impl FnOnce(&mut Self) -> WireResult<T>,
    ) -> WireResult<T>;
    /// See [`Encoder::seq`]; `body` reads one element.
    fn seq<T>(
        &mut self,
        name: &str,
        body: impl FnMut(&mut Self) -> WireResult<T>,
    ) -> WireResult<Vec<T>>;
    /// See [`Encoder::map`]; `body` reads one entry.
    fn map<T>(
        &mut self,
        name: &str,
        body: impl FnMut(&mut Self) -> WireResult<T>,
    ) -> WireResult<Vec<T>>;
    /// See [`Encoder::key`].
    fn key(&mut self) -> WireResult<String>;
    /// See [`Encoder::option`].
    fn option(&mut self, name: &str) -> WireResult<bool>;

    /// An unsigned integer that JSON may omit for `default`.
    fn u64_or(&mut self, name: &str, default: u64) -> WireResult<u64> {
        if self.has(name) {
            self.u64(name)
        } else {
            Ok(default)
        }
    }

    /// A nested [`Wire`] value.
    fn value<T: Wire>(&mut self, name: &str) -> WireResult<T> {
        self.object(name, T::decode)
    }

    /// A sequence of [`Wire`] values.
    fn values<T: Wire>(&mut self, name: &str) -> WireResult<Vec<T>> {
        self.seq(name, |d| d.value(""))
    }

    /// A sequence of strings.
    fn strs(&mut self, name: &str) -> WireResult<Vec<String>> {
        self.seq(name, |d| d.str(""))
    }
}

/// The binary codec's writer.  Its small methods are `#[inline]` so the
/// record and frame encodings instantiated in other crates compile to
/// straight-line writes, as the generic per-type impls they replaced did.
struct BinaryEncoder<'a> {
    out: &'a mut Vec<u8>,
}

impl BinaryEncoder<'_> {
    #[inline]
    fn bytes(&mut self, bytes: &[u8]) -> WireResult {
        self.out.extend_from_slice(bytes);
        Ok(())
    }

    #[inline]
    fn len(&mut self, len: usize) -> WireResult {
        let len = u32::try_from(len)
            .map_err(|_| corrupt(format!("length {len} does not fit the u32 header")))?;
        self.bytes(&len.to_le_bytes())
    }
}

impl Encoder for BinaryEncoder<'_> {
    const JSON: bool = false;

    #[inline]
    fn u8(&mut self, _: &str, value: u8) -> WireResult {
        self.bytes(&[value])
    }

    #[inline]
    fn u64(&mut self, _: &str, value: u64) -> WireResult {
        self.bytes(&value.to_le_bytes())
    }

    #[inline]
    fn i64(&mut self, _: &str, value: i64) -> WireResult {
        self.bytes(&value.to_le_bytes())
    }

    #[inline]
    fn f64(&mut self, name: &str, value: f64) -> WireResult {
        self.u64(name, value.to_bits())
    }

    #[inline]
    fn bool(&mut self, name: &str, value: bool) -> WireResult {
        self.u8(name, u8::from(value))
    }

    #[inline]
    fn str(&mut self, _: &str, value: &str) -> WireResult {
        if value.len() > MAX_TEXT_LEN {
            return Err(corrupt(format!(
                "string of {} bytes exceeds the {MAX_TEXT_LEN} byte cap",
                value.len()
            )));
        }
        self.len(value.len())?;
        self.bytes(value.as_bytes())
    }

    #[inline]
    fn hex(&mut self, name: &str, value: u64) -> WireResult {
        self.u64(name, value)
    }

    fn variant(&mut self, tag: u8, _: impl FnOnce(&mut Self) -> WireResult) -> WireResult {
        self.u8("", tag)
    }

    fn object(&mut self, _: &str, body: impl FnOnce(&mut Self) -> WireResult) -> WireResult {
        body(self)
    }

    fn seq(
        &mut self,
        _: &str,
        len: usize,
        body: impl FnOnce(&mut Self) -> WireResult,
    ) -> WireResult {
        self.len(len)?;
        body(self)
    }

    fn map(
        &mut self,
        name: &str,
        len: usize,
        body: impl FnOnce(&mut Self) -> WireResult,
    ) -> WireResult {
        self.seq(name, len, body)
    }

    #[inline]
    fn key(&mut self, key: &str) -> WireResult {
        self.str("", key)
    }

    #[inline]
    fn option(&mut self, name: &str, present: bool) -> WireResult {
        self.u8(name, u8::from(present))
    }
}

/// The binary codec's reader over one byte slice (`#[inline]` for the same
/// reason as [`BinaryEncoder`]).
struct BinaryDecoder<'a> {
    bytes: &'a [u8],
}

impl<'a> BinaryDecoder<'a> {
    #[inline]
    fn take(&mut self, len: usize) -> Result<&'a [u8], WireError> {
        if self.bytes.len() < len {
            return Err(WireError::Io(std::io::ErrorKind::UnexpectedEof.into()));
        }
        let (head, tail) = self.bytes.split_at(len);
        self.bytes = tail;
        Ok(head)
    }

    #[inline]
    fn array<const N: usize>(&mut self) -> Result<[u8; N], WireError> {
        Ok(self
            .take(N)?
            .try_into()
            .expect("take returns exactly N bytes"))
    }

    /// Reads a `u32` length or count header, enforcing `cap` before any
    /// allocation.
    #[inline]
    fn len(&mut self, cap: usize, what: &str) -> WireResult<usize> {
        let len = u32::from_le_bytes(self.array()?) as usize;
        if len > cap {
            return Err(corrupt(format!(
                "{what} length {len} exceeds the {cap} cap"
            )));
        }
        Ok(len)
    }
}

impl Decoder for BinaryDecoder<'_> {
    const JSON: bool = false;

    #[inline]
    fn has(&self, _: &str) -> bool {
        true
    }

    #[inline]
    fn u8(&mut self, _: &str) -> WireResult<u8> {
        Ok(self.take(1)?[0])
    }

    #[inline]
    fn u64(&mut self, _: &str) -> WireResult<u64> {
        Ok(u64::from_le_bytes(self.array()?))
    }

    #[inline]
    fn i64(&mut self, _: &str) -> WireResult<i64> {
        Ok(i64::from_le_bytes(self.array()?))
    }

    #[inline]
    fn f64(&mut self, name: &str) -> WireResult<f64> {
        Ok(f64::from_bits(self.u64(name)?))
    }

    #[inline]
    fn bool(&mut self, name: &str) -> WireResult<bool> {
        match self.u8(name)? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(corrupt(format!("bad bool byte {other:#04x}"))),
        }
    }

    #[inline]
    fn str(&mut self, _: &str) -> WireResult<String> {
        let len = self.len(MAX_TEXT_LEN, "string")?;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|err| corrupt(format!("bad UTF-8: {err}")))
    }

    #[inline]
    fn hex(&mut self, name: &str) -> WireResult<u64> {
        self.u64(name)
    }

    fn variant(&mut self, _: impl FnOnce(&mut Self) -> WireResult<u8>) -> WireResult<u8> {
        self.u8("")
    }

    fn object<T>(
        &mut self,
        _: &str,
        body: impl FnOnce(&mut Self) -> WireResult<T>,
    ) -> WireResult<T> {
        body(self)
    }

    fn seq<T>(
        &mut self,
        _: &str,
        mut body: impl FnMut(&mut Self) -> WireResult<T>,
    ) -> WireResult<Vec<T>> {
        let count = self.len(MAX_SEQ_LEN, "sequence")?;
        // Every element takes at least one byte, so the reservation never
        // exceeds what the input could hold.
        let mut items = Vec::with_capacity(count.min(self.bytes.len()));
        for _ in 0..count {
            items.push(body(self)?);
        }
        Ok(items)
    }

    fn map<T>(
        &mut self,
        name: &str,
        body: impl FnMut(&mut Self) -> WireResult<T>,
    ) -> WireResult<Vec<T>> {
        self.seq(name, body)
    }

    #[inline]
    fn key(&mut self) -> WireResult<String> {
        self.str("")
    }

    #[inline]
    fn option(&mut self, name: &str) -> WireResult<bool> {
        match self.u8(name)? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(corrupt(format!("bad option byte {other:#04x}"))),
        }
    }
}

/// The JSON codec's writer, appending compact JSON to a string.
struct JsonEncoder<'a> {
    out: &'a mut String,
    /// No member written yet at the current nesting level.
    first: bool,
    /// A map key was just written; the next value follows it directly.
    keyed: bool,
}

impl JsonEncoder<'_> {
    /// Starts the next member or element: a separating comma, then the
    /// quoted name unless it is empty.  Field names are plain identifiers
    /// and need no escaping.
    fn member(&mut self, name: &str) {
        if std::mem::take(&mut self.keyed) {
            return;
        }
        if !std::mem::take(&mut self.first) {
            self.out.push(',');
        }
        if !name.is_empty() {
            self.out.push('"');
            self.out.push_str(name);
            self.out.push_str("\":");
        }
    }

    /// Writes one member whose value is `text` verbatim.
    fn scalar(&mut self, name: &str, text: &str) -> WireResult {
        self.member(name);
        self.out.push_str(text);
        Ok(())
    }

    /// Writes one member whose value is `value`'s decimal digits, after a
    /// `-` when `negative`.
    fn integer(&mut self, name: &str, negative: bool, mut value: u64) -> WireResult {
        let mut digits = [0u8; 21];
        let mut start = digits.len();
        loop {
            start -= 1;
            digits[start] = b'0' + (value % 10) as u8;
            value /= 10;
            if value == 0 {
                break;
            }
        }
        if negative {
            start -= 1;
            digits[start] = b'-';
        }
        self.scalar(
            name,
            std::str::from_utf8(&digits[start..]).expect("ASCII digits"),
        )
    }

    fn nest(
        &mut self,
        name: &str,
        [open, close]: [char; 2],
        body: impl FnOnce(&mut Self) -> WireResult,
    ) -> WireResult {
        self.member(name);
        self.out.push(open);
        let first = std::mem::replace(&mut self.first, true);
        let result = body(self);
        self.first = first;
        self.out.push(close);
        result
    }
}

impl Encoder for JsonEncoder<'_> {
    const JSON: bool = true;

    fn u8(&mut self, name: &str, value: u8) -> WireResult {
        self.u64(name, value.into())
    }

    fn u64(&mut self, name: &str, value: u64) -> WireResult {
        self.integer(name, false, value)
    }

    fn i64(&mut self, name: &str, value: i64) -> WireResult {
        self.integer(name, value < 0, value.unsigned_abs())
    }

    fn f64(&mut self, name: &str, value: f64) -> WireResult {
        self.member(name);
        let _ = write!(self.out, "{value:?}");
        Ok(())
    }

    fn bool(&mut self, name: &str, value: bool) -> WireResult {
        self.scalar(name, if value { "true" } else { "false" })
    }

    fn str(&mut self, name: &str, value: &str) -> WireResult {
        self.member(name);
        render_string(self.out, value);
        Ok(())
    }

    fn hex(&mut self, name: &str, value: u64) -> WireResult {
        const HEX: &[u8; 16] = b"0123456789abcdef";
        let mut text = *b"\"0x0000000000000000\"";
        for (at, digit) in text[3..19].iter_mut().enumerate() {
            *digit = HEX[(value >> (60 - 4 * at) & 0xf) as usize];
        }
        self.scalar(name, std::str::from_utf8(&text).expect("ASCII hex"))
    }

    fn variant(&mut self, _: u8, json: impl FnOnce(&mut Self) -> WireResult) -> WireResult {
        json(self)
    }

    fn object(&mut self, name: &str, body: impl FnOnce(&mut Self) -> WireResult) -> WireResult {
        self.nest(name, ['{', '}'], body)
    }

    fn seq(
        &mut self,
        name: &str,
        _: usize,
        body: impl FnOnce(&mut Self) -> WireResult,
    ) -> WireResult {
        self.nest(name, ['[', ']'], body)
    }

    fn map(
        &mut self,
        name: &str,
        _: usize,
        body: impl FnOnce(&mut Self) -> WireResult,
    ) -> WireResult {
        self.nest(name, ['{', '}'], body)
    }

    fn key(&mut self, key: &str) -> WireResult {
        self.member("");
        render_string(self.out, key);
        self.out.push(':');
        self.keyed = true;
        Ok(())
    }

    fn option(&mut self, name: &str, present: bool) -> WireResult {
        if !present {
            self.member(name);
            self.out.push_str("null");
        }
        Ok(())
    }
}

/// The JSON codec's reader: `Wire` fields straight off a [`Tape`], with an
/// owned `String` only where a value holds one.
struct JsonDecoder<'t, 'a> {
    tape: &'t Tape<'a>,
    /// The token being read: the object a named field is looked up in, or
    /// the bare value an empty name reads.
    current: usize,
    /// Where the next lookup in `current` starts: just past its last match.
    cursor: usize,
    /// The filter bits of `current`'s members before `cursor` (see
    /// [`Tape::find`]).
    passed: u64,
    /// The key token of the map entry being read.
    key: Option<usize>,
}

impl<'t, 'a> JsonDecoder<'t, 'a> {
    /// A reader of the tape's top-level value.
    fn root(tape: &'t Tape<'a>) -> Self {
        Self {
            tape,
            current: 0,
            cursor: 0,
            passed: 0,
            key: None,
        }
    }

    /// Decodes the current value as a `T`, with the JSON codec's errors.
    fn decode<T: Wire>(&mut self) -> Result<T, String> {
        self.value("").map_err(|err| match err {
            WireError::Corrupt(message) => message,
            other => other.to_string(),
        })
    }

    /// The value token of the member `name`, or `current` for the empty
    /// name.  A found member moves the lookup cursor past it.
    fn field(&mut self, name: &str) -> Result<usize, WireError> {
        if name.is_empty() {
            return Ok(self.current);
        }
        let tape = self.tape;
        let at = tape
            .find(self.current, name, self.cursor, self.passed)
            .ok_or_else(|| corrupt(format!("missing field `{name}`")))?;
        if at >= self.cursor {
            self.passed |= tape.filter(self.current, self.cursor..at + 1);
            self.cursor = at + 1;
        }
        Ok(tape.members(self.current)[at].key + 1)
    }

    /// Reads `name` through `read`, naming the expected type on failure.
    fn typed<T>(
        &mut self,
        name: &str,
        what: &str,
        read: impl FnOnce(&Tape<'_>, usize) -> Option<T>,
    ) -> WireResult<T> {
        let token = self.field(name)?;
        read(self.tape, token).ok_or_else(|| {
            if name.is_empty() {
                corrupt(format!("element is not {what}"))
            } else {
                corrupt(format!("field `{name}` is not {what}"))
            }
        })
    }

    /// The token of `name` if it is of `kind`.
    fn kind(&mut self, name: &str, kind: Kind, what: &str) -> WireResult<usize> {
        self.typed(name, what, |tape, token| {
            (tape.kind(token) == kind).then_some(token)
        })
    }

    /// The raw text of the number `name`, parsed as `T`.
    fn number<T: std::str::FromStr>(&mut self, name: &str, what: &str) -> WireResult<T> {
        self.typed(name, what, |tape, token| match tape.kind(token) {
            Kind::Number => tape.text(token).parse().ok(),
            _ => None,
        })
    }

    /// The text of the string `name`, borrowed from the tape.
    fn text(&mut self, name: &str) -> WireResult<&str> {
        let token = self.kind(name, Kind::Text, "a string")?;
        Ok(self.tape.text(token))
    }

    fn enter<T>(
        &mut self,
        token: usize,
        body: impl FnOnce(&mut Self) -> WireResult<T>,
    ) -> WireResult<T> {
        let outer = (self.current, self.cursor, self.passed);
        (self.current, self.cursor, self.passed) = (token, 0, 0);
        let result = body(self);
        (self.current, self.cursor, self.passed) = outer;
        result
    }
}

impl Decoder for JsonDecoder<'_, '_> {
    const JSON: bool = true;

    fn has(&self, name: &str) -> bool {
        name.is_empty()
            || self
                .tape
                .find(self.current, name, self.cursor, self.passed)
                .is_some()
    }

    fn u8(&mut self, name: &str) -> WireResult<u8> {
        self.number(name, "a byte")
    }

    fn u64(&mut self, name: &str) -> WireResult<u64> {
        self.number(name, "a non-negative integer")
    }

    fn i64(&mut self, name: &str) -> WireResult<i64> {
        self.number(name, "an integer")
    }

    fn f64(&mut self, name: &str) -> WireResult<f64> {
        self.number(name, "a number")
    }

    fn bool(&mut self, name: &str) -> WireResult<bool> {
        self.typed(name, "a boolean", |tape, token| match tape.kind(token) {
            Kind::True => Some(true),
            Kind::False => Some(false),
            _ => None,
        })
    }

    fn str(&mut self, name: &str) -> WireResult<String> {
        self.text(name).map(str::to_owned)
    }

    fn hex(&mut self, name: &str) -> WireResult<u64> {
        let text = self.text(name)?;
        let digits = text
            .strip_prefix("0x")
            .ok_or_else(|| corrupt(format!("field `{name}`: expected 0x prefix, got `{text}`")))?;
        u64::from_str_radix(digits, 16).map_err(|err| corrupt(format!("field `{name}`: {err}")))
    }

    fn variant(&mut self, json: impl FnOnce(&mut Self) -> WireResult<u8>) -> WireResult<u8> {
        json(self)
    }

    fn object<T>(
        &mut self,
        name: &str,
        body: impl FnOnce(&mut Self) -> WireResult<T>,
    ) -> WireResult<T> {
        let token = self.kind(name, Kind::Object, "an object")?;
        self.enter(token, body)
    }

    fn seq<T>(
        &mut self,
        name: &str,
        mut body: impl FnMut(&mut Self) -> WireResult<T>,
    ) -> WireResult<Vec<T>> {
        let array = self.kind(name, Kind::Array, "an array")?;
        let tape = self.tape;
        tape.elements(array)
            .map(|element| self.enter(element, &mut body))
            .collect()
    }

    fn map<T>(
        &mut self,
        name: &str,
        mut body: impl FnMut(&mut Self) -> WireResult<T>,
    ) -> WireResult<Vec<T>> {
        let object = self.kind(name, Kind::Object, "an object")?;
        let tape = self.tape;
        let outer = self.key;
        let result = tape
            .members(object)
            .iter()
            .map(|member| {
                self.key = Some(member.key);
                self.enter(member.key + 1, &mut body)
            })
            .collect();
        self.key = outer;
        result
    }

    fn key(&mut self) -> WireResult<String> {
        Ok(self
            .key
            .map_or_else(String::new, |key| self.tape.text(key).to_owned()))
    }

    fn option(&mut self, name: &str) -> WireResult<bool> {
        let token = self.field(name)?;
        Ok(self.tape.kind(token) != Kind::Null)
    }
}

/// Appends `value`'s binary encoding to `out`.
///
/// # Errors
///
/// [`WireError::Corrupt`] when a string or sequence exceeds the binary
/// headers' caps.
pub fn write_bytes<T: Wire>(out: &mut Vec<u8>, value: &T) -> WireResult {
    value.encode(&mut BinaryEncoder { out })
}

/// Encodes one value to a fresh byte vector — convenience for tests and
/// one-shot callers; hot paths use [`write_bytes`] into a reused buffer.
///
/// # Errors
///
/// As [`write_bytes`].
pub fn to_bytes<T: Wire>(value: &T) -> WireResult<Vec<u8>> {
    let mut out = Vec::with_capacity(128);
    write_bytes(&mut out, value)?;
    Ok(out)
}

/// Decodes one value from a byte slice, requiring every byte to be consumed.
///
/// # Errors
///
/// Returns [`WireError::Io`] on truncation, [`WireError::Corrupt`] on bad
/// bytes or trailing garbage.
pub fn from_bytes<T: Wire>(bytes: &[u8]) -> WireResult<T> {
    let mut decoder = BinaryDecoder { bytes };
    let value = T::decode(&mut decoder)?;
    if !decoder.bytes.is_empty() {
        return Err(corrupt(format!(
            "{} trailing bytes after the value",
            decoder.bytes.len()
        )));
    }
    Ok(value)
}

/// Encodes `value` as one JSON object in a fresh string.
pub fn to_json<T: Wire>(value: &T) -> String {
    let mut out = String::with_capacity(256);
    write_json(&mut out, value);
    out
}

/// Appends `value` to `out` as one JSON object.
pub fn write_json<T: Wire>(out: &mut String, value: &T) {
    let mut encoder = JsonEncoder {
        out,
        first: true,
        keyed: false,
    };
    encoder
        .value("", value)
        .expect("the JSON encoder never fails");
}

/// Decodes one value from one JSON document, such as a JSONL cache line or
/// a wire line: one validating pass into a token tape, then the value's
/// fields straight off it.  Members may come in any order, unknown ones are
/// ignored, and a duplicated one reads as its first occurrence.
///
/// # Errors
///
/// A description of the first syntax problem, or of the first missing or
/// mistyped member, without the binary codec's prefix.
pub fn from_json<T: Wire>(text: &str) -> Result<T, String> {
    let tape = Tape::parse(text)?;
    JsonDecoder::root(&tape).decode()
}

/// As [`from_json`], and also returns the top-level member `member` (its
/// first occurrence, at any position), which must be a string when present:
/// a member outside `T`'s field list, such as the wire's `trace`.
///
/// # Errors
///
/// As [`from_json`], and a present `member` that is not a string.
pub fn from_json_with<T: Wire>(text: &str, member: &str) -> Result<(T, Option<String>), String> {
    let tape = Tape::parse(text)?;
    let mut decoder = JsonDecoder::root(&tape);
    let value = decoder.decode()?;
    if !decoder.has(member) {
        return Ok((value, None));
    }
    let text = decoder
        .text(member)
        .map_err(|_| format!("`{member}` must be a string"))?;
    Ok((value, Some(text.to_owned())))
}

impl Wire for PointRecord {
    fn encode<E: Encoder>(&self, e: &mut E) -> WireResult {
        e.hex("key", self.key)?;
        e.str("canonical", &self.canonical)?;
        e.str("kernel", &self.kernel)?;
        e.str("algorithm", &self.algorithm)?;
        e.str("version", &self.version)?;
        e.u64("budget", self.budget)?;
        e.u64("ram_latency", self.ram_latency)?;
        e.str("device", &self.device)?;
        e.bool("feasible", self.feasible)?;
        e.bool("fits", self.fits)?;
        e.u64("registers_used", self.registers_used)?;
        e.u64("total_cycles", self.total_cycles)?;
        e.u64("compute_cycles", self.compute_cycles)?;
        e.u64("memory_cycles", self.memory_cycles)?;
        e.u64("transfer_cycles", self.transfer_cycles)?;
        e.f64("clock_period_ns", self.clock_period_ns)?;
        e.f64("execution_time_us", self.execution_time_us)?;
        e.u64("slices", self.slices)?;
        e.u64("block_rams", self.block_rams)?;
        e.str("distribution", &self.distribution)
    }

    fn decode<D: Decoder>(d: &mut D) -> WireResult<Self> {
        Ok(Self {
            key: d.hex("key")?,
            canonical: d.str("canonical")?,
            kernel: d.str("kernel")?,
            algorithm: d.str("algorithm")?,
            version: d.str("version")?,
            budget: d.u64("budget")?,
            ram_latency: d.u64("ram_latency")?,
            device: d.str("device")?,
            feasible: d.bool("feasible")?,
            fits: d.bool("fits")?,
            registers_used: d.u64("registers_used")?,
            total_cycles: d.u64("total_cycles")?,
            compute_cycles: d.u64("compute_cycles")?,
            memory_cycles: d.u64("memory_cycles")?,
            transfer_cycles: d.u64("transfer_cycles")?,
            clock_period_ns: d.f64("clock_period_ns")?,
            execution_time_us: d.f64("execution_time_us")?,
            slices: d.u64("slices")?,
            block_rams: d.u64("block_rams")?,
            distribution: d.str("distribution")?,
        })
    }
}

impl Wire for Span {
    fn encode<E: Encoder>(&self, e: &mut E) -> WireResult {
        e.str("trace", &self.trace_id)?;
        e.u64("span", self.span_id)?;
        e.u64("parent", self.parent_id)?;
        e.str("name", &self.name)?;
        e.u64("start_us", self.start_us)?;
        e.u64("dur_us", self.dur_us)?;
        // JSON omits an empty annotation map.
        if E::JSON && self.annotations.is_empty() {
            return Ok(());
        }
        e.map("annotations", self.annotations.len(), |e| {
            self.annotations.iter().try_for_each(|(key, value)| {
                e.key(key)?;
                e.str("", value)
            })
        })
    }

    fn decode<D: Decoder>(d: &mut D) -> WireResult<Self> {
        Ok(Self {
            trace_id: d.str("trace")?,
            span_id: d.u64("span")?,
            parent_id: d.u64("parent")?,
            name: d.str("name")?,
            start_us: d.u64("start_us")?,
            dur_us: d.u64("dur_us")?,
            annotations: if d.has("annotations") {
                d.map("annotations", |d| Ok((d.key()?, d.str("")?)))?
            } else {
                Vec::new()
            },
        })
    }
}

impl Wire for SeriesSample {
    fn encode<E: Encoder>(&self, e: &mut E) -> WireResult {
        e.u64("at_us", self.at_us)?;
        e.value("metrics", &self.metrics)
    }

    fn decode<D: Decoder>(d: &mut D) -> WireResult<Self> {
        Ok(Self {
            at_us: d.u64("at_us")?,
            metrics: d.value("metrics")?,
        })
    }
}

impl Wire for SnapshotDelta {
    fn encode<E: Encoder>(&self, e: &mut E) -> WireResult {
        e.u64("from_us", self.from_us)?;
        e.u64("to_us", self.to_us)?;
        e.value("metrics", &self.diff)
    }

    fn decode<D: Decoder>(d: &mut D) -> WireResult<Self> {
        Ok(Self {
            from_us: d.u64("from_us")?,
            to_us: d.u64("to_us")?,
            diff: d.value("metrics")?,
        })
    }
}

/// The upper bound, in µs, of histogram bucket `index`: the key JSON files
/// an exemplar under, as the Prometheus `le` label does.
fn bucket_bound(index: usize) -> u64 {
    (1u64 << index).wrapping_sub(1)
}

/// Reads a map key as a metric name.  Names render unescaped, so they are
/// re-validated on the way in.
fn metric_name<D: Decoder>(d: &mut D) -> WireResult<String> {
    let name = d.key()?;
    if !valid_metric_name(&name) {
        return Err(corrupt(format!("illegal metric name {name:?}")));
    }
    Ok(name)
}

fn encode_histogram<E: Encoder>(e: &mut E, histogram: &HistogramSnapshot) -> WireResult {
    let mut buckets = histogram.buckets();
    if E::JSON {
        // Derived for scripts and never decoded; the trimmed buckets are
        // the payload.
        e.u64("count", histogram.count())?;
        e.u64("p50_us", histogram.quantile(0.5))?;
        e.u64("p99_us", histogram.quantile(0.99))?;
        let used = buckets.iter().rposition(|&count| count > 0);
        buckets = &buckets[..used.map_or(0, |last| last + 1)];
    }
    e.seq("buckets", buckets.len(), |e| {
        buckets.iter().try_for_each(|&count| e.u64("", count))
    })?;
    let exemplars: Vec<(usize, &str)> = histogram
        .exemplars()
        .iter()
        .enumerate()
        .filter_map(|(index, id)| id.as_deref().map(|id| (index, id)))
        .collect();
    if E::JSON && exemplars.is_empty() {
        return Ok(());
    }
    e.map("exemplars", exemplars.len(), |e| {
        exemplars.iter().try_for_each(|&(index, id)| {
            // JSON keys an exemplar by its bucket's bound, binary by index.
            if E::JSON {
                e.key(&bucket_bound(index).to_string())?;
            } else {
                e.u8("", index as u8)?;
            }
            e.str("", id)
        })
    })
}

fn decode_histogram<D: Decoder>(d: &mut D, name: &str) -> WireResult<HistogramSnapshot> {
    // A short array (trimmed, or from a peer with fewer buckets) zero-pads.
    let buckets = d.seq("buckets", |d| d.u64(""))?;
    let mut histogram = HistogramSnapshot::from_buckets(&buckets)
        .ok_or_else(|| corrupt(format!("histogram `{name}` carries too many buckets")))?;
    if d.has("exemplars") {
        let exemplars = d.map("exemplars", |d| {
            let index = if D::JSON {
                let key = d.key()?;
                let bound = key.parse::<u64>().map_err(|_| {
                    corrupt(format!(
                        "histogram `{name}` exemplar key `{key}` is not a bound"
                    ))
                })?;
                (0..LATENCY_BUCKETS).find(|&index| bucket_bound(index) == bound)
            } else {
                Some(usize::from(d.u8("")?))
            };
            Ok((index, d.str("")?))
        })?;
        // Unknown bounds and out-of-range indices are skipped, so a peer
        // with more buckets still decodes.
        for (index, id) in exemplars {
            if let Some(index) = index {
                histogram.set_exemplar(index, id);
            }
        }
    }
    Ok(histogram)
}

impl Wire for MetricsSnapshot {
    fn encode<E: Encoder>(&self, e: &mut E) -> WireResult {
        e.map("counters", self.counters.len(), |e| {
            self.counters.iter().try_for_each(|(name, count)| {
                e.key(name)?;
                e.u64("", *count)
            })
        })?;
        e.map("gauges", self.gauges.len(), |e| {
            self.gauges.iter().try_for_each(|(name, level)| {
                e.key(name)?;
                e.i64("", *level)
            })
        })?;
        e.map("histograms", self.histograms.len(), |e| {
            self.histograms.iter().try_for_each(|(name, histogram)| {
                e.key(name)?;
                e.object("", |e| encode_histogram(e, histogram))
            })
        })
    }

    fn decode<D: Decoder>(d: &mut D) -> WireResult<Self> {
        let mut snapshot = MetricsSnapshot::default();
        if d.has("counters") {
            snapshot.counters = d.map("counters", |d| Ok((metric_name(d)?, d.u64("")?)))?;
        }
        if d.has("gauges") {
            snapshot.gauges = d.map("gauges", |d| Ok((metric_name(d)?, d.i64("")?)))?;
        }
        if d.has("histograms") {
            snapshot.histograms = d.map("histograms", |d| {
                let name = metric_name(d)?;
                let histogram = d.object("", |d| decode_histogram(d, &name))?;
                Ok((name, histogram))
            })?;
        }
        Ok(snapshot)
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
            fits: false,
            registers_used: 32,
            total_cycles: 123_456,
            compute_cycles: 100_000,
            memory_cycles: 20_000,
            transfer_cycles: 3_456,
            clock_period_ns: 10.573,
            execution_time_us: 1_305.312_048,
            slices: 471,
            block_rams: 3,
            distribution: "a:30 b:1 \"c\":1".to_owned(),
        }
    }

    /// The binary encoding of whatever `write` writes.
    fn binary(write: impl FnOnce(&mut BinaryEncoder<'_>) -> WireResult) -> Vec<u8> {
        let mut out = Vec::new();
        write(&mut BinaryEncoder { out: &mut out }).expect("encodes");
        out
    }

    fn reader(bytes: &[u8]) -> BinaryDecoder<'_> {
        BinaryDecoder { bytes }
    }

    /// A record batch, to round-trip sequences of values and of options.
    #[derive(Debug, PartialEq)]
    struct Batch {
        records: Vec<PointRecord>,
        maybe: Vec<Option<PointRecord>>,
    }

    impl Wire for Batch {
        fn encode<E: Encoder>(&self, e: &mut E) -> WireResult {
            e.values("records", &self.records)?;
            e.seq("maybe", self.maybe.len(), |e| {
                self.maybe.iter().try_for_each(|record| {
                    e.option("", record.is_some())?;
                    record.as_ref().map_or(Ok(()), |record| e.value("", record))
                })
            })
        }

        fn decode<D: Decoder>(d: &mut D) -> WireResult<Self> {
            Ok(Self {
                records: d.values("records")?,
                maybe: d.seq("maybe", |d| {
                    if d.option("")? {
                        d.value("").map(Some)
                    } else {
                        Ok(None)
                    }
                })?,
            })
        }
    }

    fn round_trip<T: Wire + PartialEq + std::fmt::Debug>(value: &T) {
        let bytes = to_bytes(value).expect("encodes");
        let back: T = from_bytes(&bytes).expect("decodes");
        assert_eq!(&back, value);
        let mut line = String::new();
        write_json(&mut line, value);
        let back: T = from_json(&line).expect("decodes");
        assert_eq!(&back, value, "{line}");
    }

    #[test]
    fn primitives_round_trip() {
        for value in [0u8, 1, 0x7f, 0xff] {
            assert_eq!(reader(&binary(|e| e.u8("", value))).u8("").unwrap(), value);
        }
        for value in [0u64, 1, u64::MAX] {
            assert_eq!(
                reader(&binary(|e| e.u64("", value))).u64("").unwrap(),
                value
            );
        }
        for value in [i64::MIN, -1, 0, i64::MAX] {
            assert_eq!(
                reader(&binary(|e| e.i64("", value))).i64("").unwrap(),
                value
            );
        }
        for value in [true, false] {
            assert_eq!(
                reader(&binary(|e| e.bool("", value))).bool("").unwrap(),
                value
            );
        }
        let mut some = reader(&[1, 42, 0, 0, 0, 0, 0, 0, 0]);
        assert!(some.option("").unwrap());
        assert_eq!(some.u64("").unwrap(), 42);
        assert_eq!(binary(|e| e.option("", false)), [0]);
        for items in [vec![1u64, 2, 3], Vec::new()] {
            let bytes = binary(|e| {
                e.seq("", items.len(), |e| {
                    items.iter().try_for_each(|&item| e.u64("", item))
                })
            });
            assert_eq!(reader(&bytes).seq("", |d| d.u64("")).unwrap(), items);
        }
    }

    #[test]
    fn floats_round_trip_bit_exactly() {
        for value in [
            0.0f64,
            -0.0,
            1.0,
            -1.5,
            f64::MIN,
            f64::MAX,
            f64::MIN_POSITIVE,
            f64::EPSILON,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            f64::from_bits(0x7ff8_dead_beef_cafe), // NaN with a payload
            1e-308,
            1e308,
        ] {
            let bytes = binary(|e| e.f64("", value));
            let back = reader(&bytes).f64("").unwrap();
            assert_eq!(back.to_bits(), value.to_bits(), "{value}");
        }
    }

    #[test]
    fn nasty_strings_round_trip() {
        for text in [
            "",
            "plain",
            "with \"quotes\" and \\backslashes\\",
            "newline\nand\ttab\rand\u{0}nul",
            "unicode: ünïcødé — 日本語 🚀",
            "\u{1}\u{2}\u{3}control soup\u{1f}",
            "a:16 \"b\":1",
        ] {
            let mut record = sample_record();
            record.distribution = text.to_owned();
            round_trip(&record);
        }
        // A long string well past any inline buffer.
        let mut record = sample_record();
        record.distribution = "x".repeat(100_000);
        round_trip(&record);
    }

    #[test]
    fn point_record_round_trips() {
        round_trip(&sample_record());

        // Extreme numeric fields, including a payload-carrying NaN.
        let mut extreme = sample_record();
        extreme.key = u64::MAX;
        extreme.budget = u64::MAX;
        extreme.total_cycles = 0;
        extreme.clock_period_ns = f64::from_bits(0x7ff8_0000_0000_0001);
        extreme.execution_time_us = f64::NEG_INFINITY;
        extreme.distribution = String::new();
        let bytes = to_bytes(&extreme).unwrap();
        let back: PointRecord = from_bytes(&bytes).unwrap();
        assert_eq!(back.key, extreme.key);
        assert_eq!(
            back.clock_period_ns.to_bits(),
            extreme.clock_period_ns.to_bits()
        );
        assert_eq!(
            back.execution_time_us.to_bits(),
            extreme.execution_time_us.to_bits()
        );
    }

    #[test]
    fn vectors_of_records_round_trip() {
        round_trip(&Batch {
            records: vec![sample_record(), sample_record()],
            maybe: vec![Some(sample_record()), None],
        });
        round_trip(&Batch {
            records: Vec::new(),
            maybe: Vec::new(),
        });
    }

    #[test]
    fn truncated_input_is_an_io_error() {
        let bytes = to_bytes(&sample_record()).unwrap();
        for cut in [0, 1, 8, bytes.len() / 2, bytes.len() - 1] {
            match from_bytes::<PointRecord>(&bytes[..cut]) {
                Err(WireError::Io(err)) => {
                    assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof, "cut {cut}");
                }
                other => panic!("cut {cut}: expected truncation error, got {other:?}"),
            }
        }
    }

    #[test]
    fn corrupt_headers_are_rejected_before_allocation() {
        // A string length header claiming 4 GiB.
        let bytes = u32::MAX.to_le_bytes();
        assert!(matches!(reader(&bytes).str(""), Err(WireError::Corrupt(_))));

        // A sequence count over the cap.
        let bytes = ((MAX_SEQ_LEN + 1) as u32).to_le_bytes();
        assert!(matches!(
            reader(&bytes).seq("", |d| d.u64("")),
            Err(WireError::Corrupt(_))
        ));

        // Invalid UTF-8 payload.
        let bytes = [2, 0, 0, 0, 0xff, 0xfe];
        assert!(matches!(reader(&bytes).str(""), Err(WireError::Corrupt(_))));

        // Bad bool and option discriminants.
        assert!(matches!(reader(&[7]).bool(""), Err(WireError::Corrupt(_))));
        assert!(matches!(
            reader(&[9]).option(""),
            Err(WireError::Corrupt(_))
        ));
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        let mut bytes = to_bytes(&sample_record()).unwrap();
        bytes.push(0);
        assert!(matches!(
            from_bytes::<PointRecord>(&bytes),
            Err(WireError::Corrupt(_))
        ));
    }

    fn sample_snapshot() -> MetricsSnapshot {
        let registry = srra_obs::Registry::new();
        registry.counter("requests_total").add(7);
        registry.gauge("open_connections").set(-2);
        let latency = registry.histogram("get_latency_us");
        latency.record_micros(40);
        latency.record_micros(40);
        latency.record_micros(5_000);
        registry.snapshot()
    }

    #[test]
    fn json_rendering_carries_buckets_and_derived_quantiles() {
        let json = to_json(&sample_snapshot());
        assert!(json.starts_with("{\"counters\":{\"requests_total\":7}"));
        assert!(json.contains("\"gauges\":{\"open_connections\":-2}"));
        assert!(json.contains(
            "\"get_latency_us\":{\"count\":3,\"p50_us\":63,\"p99_us\":8191,\"buckets\":["
        ));
        assert!(json.ends_with("]}}}"));
        // An exemplar-free snapshot keeps the historical JSON byte shape.
        assert!(!json.contains("exemplars"), "{json}");

        let registry = srra_obs::Registry::new();
        let latency = registry.histogram("get_latency_us");
        latency.record_micros(40);
        latency.record_traced(std::time::Duration::from_micros(40), "req-warm");
        latency.record_traced(std::time::Duration::from_micros(5_000), "req-slow");
        let json = to_json(&registry.snapshot());
        assert!(
            json.contains("\"exemplars\":{\"63\":\"req-warm\",\"8191\":\"req-slow\"}"),
            "{json}"
        );
    }

    #[test]
    fn json_integers_and_keys_write_what_core_fmt_writes() {
        let json = |write: &dyn Fn(&mut JsonEncoder<'_>) -> WireResult| {
            let mut out = String::new();
            write(&mut JsonEncoder {
                out: &mut out,
                first: true,
                keyed: false,
            })
            .expect("encodes");
            out
        };
        for value in [0, 1, 9, 10, 4_096, u64::from(u32::MAX), u64::MAX] {
            assert_eq!(json(&|e| e.u64("", value)), format!("{value}"));
            assert_eq!(json(&|e| e.hex("", value)), format!("\"{value:#018x}\""));
        }
        for value in [i64::MIN, -4_096, -1, 0, 7, i64::MAX] {
            assert_eq!(json(&|e| e.i64("", value)), format!("{value}"));
        }
        assert_eq!(json(&|e| e.u8("n", 255)), "\"n\":255");
        assert_eq!(json(&|e| e.bool("b", false)), "\"b\":false");
    }

    #[test]
    fn binary_beats_json_on_size_for_typical_records() {
        // Not a correctness property, but the point of the codec: the binary
        // encoding of a typical record is smaller than its JSON line.
        let record = sample_record();
        let binary = to_bytes(&record).unwrap();
        let json = record.to_json_line();
        assert!(
            binary.len() < json.len(),
            "binary {} >= json {}",
            binary.len(),
            json.len()
        );
    }
}
