//! The workspace's one JSON reader, shared by the JSONL cache files
//! ([`PointRecord`](crate::PointRecord)) and the serve layer's wire protocol
//! (both through [`crate::codec`]), plus the JSON string escaper.
//!
//! The workspace's `serde` is an offline no-op shim, so the workspace reads
//! JSON itself, after simdjson's design (Langdale & Lemire, "Parsing
//! Gigabytes of JSON per Second", VLDB J. 2019): one validating pass turns a
//! document into a flat [`Tape`] of tokens, and readers take values off the
//! tape without building a tree.
//!
//! * A number token is its raw source text: nothing converts to `f64` and
//!   back, so the codec decodes the f64 fields of a record bit-exactly.
//! * A string token is its unescaped text: a slice of the source when the
//!   string has no escape, else a slice of the tape's one buffer of
//!   unescaped strings.
//! * A container token records where its subtree ends, so a reader steps
//!   over a nested value in one move.
//! * Each object's members sit contiguously in the tape's member index,
//!   in document order, each with a signature of its key.
//!
//! The codec's JSON `Decoder` reads `Wire` fields straight off the tape;
//! [`JsonValue::parse`] builds its tree from the same tokens.

use std::ops::Range;

/// One JSON value: the full recursive grammar, with numbers kept as raw text.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number, stored as its raw (already validated) source text.
    Number(String),
    /// A string (unescaped).
    Text(String),
    /// An array.
    Array(Vec<JsonValue>),
    /// An object as an ordered field list (duplicate keys keep first).
    Object(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// The deepest nesting of arrays and objects [`JsonValue::parse`] accepts.
    ///
    /// The tokenizer keeps one stack entry per open level, and the tree
    /// built from its tokens recurses once per level, so the cap bounds
    /// both.  The deepest message the workspace writes (a `series` or
    /// `metrics` reply) nests about 6 levels.
    pub const MAX_DEPTH: usize = 128;

    /// Parses one complete JSON document; trailing garbage is an error.
    ///
    /// Arrays and objects may nest at most [`JsonValue::MAX_DEPTH`] deep, so
    /// a hostile line of `[[[[…` is a parse error, not a stack overflow.
    ///
    /// # Errors
    ///
    /// Returns a description of the first syntax problem.
    pub fn parse(text: &str) -> Result<Self, String> {
        let tape = Tape::parse(text)?;
        Ok(tape.tree(0))
    }

    /// Looks a field up in an object (first occurrence); `None` for other
    /// variants or a missing field.
    pub fn get(&self, name: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(fields) => fields
                .iter()
                .find(|(key, _)| key == name)
                .map(|(_, value)| value),
            _ => None,
        }
    }

    /// The string payload, if this is a `Text` value.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Text(text) => Some(text),
            _ => None,
        }
    }

    /// The boolean payload, if this is a `Bool` value.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The number parsed as `u64`, if this is a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::Number(raw) => raw.parse().ok(),
            _ => None,
        }
    }

    /// The number parsed as `f64`, if this is a `Number`.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Number(raw) => raw.parse().ok(),
            _ => None,
        }
    }

    /// The element list, if this is an `Array`.
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Array(items) => Some(items),
            _ => None,
        }
    }
}

/// Writes `text` as a quoted, escaped JSON string: the JSON codec's one
/// string escaper.  Runs that need no escape are copied whole.
pub(crate) fn render_string(out: &mut String, text: &str) {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    out.push('"');
    let mut run = 0;
    for (at, &byte) in text.as_bytes().iter().enumerate() {
        let unicode;
        let escape = match byte {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            0..=0x1f => {
                unicode = [
                    b'\\',
                    b'u',
                    b'0',
                    b'0',
                    HEX[usize::from(byte >> 4)],
                    HEX[usize::from(byte & 0xf)],
                ];
                std::str::from_utf8(&unicode).expect("an ASCII escape")
            }
            _ => continue,
        };
        // Every escaped byte is ASCII, so `run..at` ends on a char boundary.
        out.push_str(&text[run..at]);
        out.push_str(escape);
        run = at + 1;
    }
    out.push_str(&text[run..]);
    out.push('"');
}

/// What a token is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Kind {
    Null,
    False,
    True,
    Number,
    Text,
    Array,
    Object,
}

/// One value on the tape; a container's descendants follow it.
#[derive(Debug, Clone, Copy)]
struct Token {
    kind: Kind,
    /// For `Text`: the text sits in the tape's `unescaped` buffer, not in the
    /// source.
    escaped: bool,
    /// `Number`: the raw text's byte range in the source.  `Text`: the
    /// unescaped text's byte range.  `Object`: its members' range in
    /// the tape's `members` index.  `Array`: unused.
    start: usize,
    end: usize,
    /// The index of the first token after this one's subtree.
    next: usize,
}

/// One member of an object: its key's `Text` token, which its value's
/// token follows.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Member {
    /// [`signature`] of the unescaped key.
    sig: u64,
    pub(crate) key: usize,
}

/// A key's signature: its length and first eight bytes, mixed so that the
/// top six bits are spread well enough to pick one bit of a 64-bit filter
/// (see [`Tape::find`]).  Equal keys have equal signatures.
fn signature(key: &[u8]) -> u64 {
    let head = match key.get(..8) {
        Some(head) => u64::from_le_bytes(head.try_into().expect("eight bytes")),
        None => key
            .iter()
            .rev()
            .fold(0, |word, &byte| word << 8 | u64::from(byte)),
    };
    (head ^ key.len() as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15)
}

/// The bit of a lookup filter that a signature sets.
fn filter_bit(sig: u64) -> u64 {
    1 << (sig >> 58)
}

/// A validated JSON document as a flat token list: the token of the
/// top-level value first, every container's descendants after it in
/// document order.
pub(crate) struct Tape<'a> {
    source: &'a str,
    tokens: Vec<Token>,
    /// Every object's members, each object's contiguous and in document
    /// order; objects are listed in the order they close.
    members: Vec<Member>,
    /// The unescaped text of every string with an escape in it.
    unescaped: String,
    /// While tokenizing: the tokens of the open containers, innermost last.
    open: Vec<usize>,
}

/// Skips JSON whitespace from `pos`.
fn skip_ws(bytes: &[u8], mut pos: usize) -> usize {
    while let Some(b' ' | b'\t' | b'\n' | b'\r') = bytes.get(pos) {
        pos += 1;
    }
    pos
}

/// The offset of the first `"` or `\\` at or after `pos`, or the end of
/// `bytes`.
fn quote_or_backslash(bytes: &[u8], pos: usize) -> usize {
    bytes[pos..]
        .iter()
        .position(|&byte| byte == b'"' || byte == b'\\')
        .map_or(bytes.len(), |at| pos + at)
}

/// Skips ASCII digits from `*pos`, returning how many there were.
fn digits(bytes: &[u8], pos: &mut usize) -> usize {
    let start = *pos;
    while bytes.get(*pos).is_some_and(u8::is_ascii_digit) {
        *pos += 1;
    }
    *pos - start
}

impl<'a> Tape<'a> {
    /// Tokenizes and validates one complete JSON document; trailing garbage
    /// is an error, as is nesting deeper than [`JsonValue::MAX_DEPTH`].
    ///
    /// Strings accept the escapes `\" \\ \/ \b \f \n \r \t` and `\u` with
    /// four hex digits naming a scalar value (a surrogate, paired or not, is
    /// an error).  Numbers are an optional `-`,
    /// digits, an optional `.` and digits, an optional exponent, with at
    /// least one mantissa digit and one exponent digit: `1.`, `-.5`, `01`
    /// and `1.e5` parse, `1e`, `1e+`, `-` and `-.` do not.
    pub(crate) fn parse(source: &'a str) -> Result<Self, String> {
        let bytes = source.as_bytes();
        // A record line holds about one token per 11 bytes and one member
        // per 23, so both lists are reserved from the line's length, and
        // capped so that a long line of whitespace or one huge string
        // reserves little.
        let mut tape = Tape {
            source,
            tokens: Vec::with_capacity((source.len() / 10 + 2).min(1 << 16)),
            members: Vec::with_capacity((source.len() / 20 + 1).min(1 << 15)),
            unescaped: String::new(),
            open: Vec::new(),
        };
        let mut pos = skip_ws(bytes, 0);
        'value: loop {
            match bytes.get(pos) {
                Some(&byte @ (b'{' | b'[')) => {
                    if tape.open.len() == JsonValue::MAX_DEPTH {
                        return Err(format!(
                            "nested deeper than {} levels at byte {pos}",
                            JsonValue::MAX_DEPTH
                        ));
                    }
                    let object = byte == b'{';
                    let kind = if object { Kind::Object } else { Kind::Array };
                    // `close` fills in the range and the subtree's end.
                    let token = tape.push(kind, false, 0..0);
                    pos = skip_ws(bytes, pos + 1);
                    tape.open.push(token);
                    if bytes.get(pos) == Some(if object { &b'}' } else { &b']' }) {
                        pos += 1;
                        tape.close();
                    } else {
                        if object {
                            pos = tape.read_key(pos)?;
                        }
                        continue 'value;
                    }
                }
                Some(b'"') => pos = tape.string(pos)?,
                Some(b't') => pos = tape.literal(pos, "true", Kind::True)?,
                Some(b'f') => pos = tape.literal(pos, "false", Kind::False)?,
                Some(b'n') => pos = tape.literal(pos, "null", Kind::Null)?,
                Some(b'-' | b'0'..=b'9') => pos = tape.number(pos)?,
                other => return Err(format!("unexpected value start {other:?} at byte {pos}")),
            }
            // A value just ended: separate it from the next one, or close
            // the containers it ends.
            while let Some(&top) = tape.open.last() {
                pos = skip_ws(bytes, pos);
                let object = tape.tokens[top].kind == Kind::Object;
                let close = if object { b'}' } else { b']' };
                match bytes.get(pos) {
                    Some(b',') => {
                        pos = skip_ws(bytes, pos + 1);
                        if object {
                            pos = tape.read_key(pos)?;
                        }
                        continue 'value;
                    }
                    Some(&byte) if byte == close => {
                        pos += 1;
                        tape.close();
                    }
                    other => {
                        return Err(format!(
                            "expected `,` or `{}`, got {other:?}",
                            char::from(close)
                        ))
                    }
                }
            }
            break;
        }
        pos = skip_ws(bytes, pos);
        if pos != bytes.len() {
            return Err(format!("trailing input at byte {pos}"));
        }
        Ok(tape)
    }

    fn push(&mut self, kind: Kind, escaped: bool, range: Range<usize>) -> usize {
        let index = self.tokens.len();
        self.tokens.push(Token {
            kind,
            escaped,
            start: range.start,
            end: range.end,
            next: index + 1,
        });
        index
    }

    /// Closes the innermost open container.  An object appends its members
    /// to the member index: its first key follows its token, each key is
    /// followed by its value, and each value's subtree by the next key.
    fn close(&mut self) {
        let token = self.open.pop().expect("an open container");
        let next = self.tokens.len();
        self.tokens[token].next = next;
        if self.tokens[token].kind == Kind::Object {
            let start = self.members.len();
            let mut key = token + 1;
            while key < next {
                let sig = signature(self.text(key).as_bytes());
                self.members.push(Member { sig, key });
                key = self.tokens[key + 1].next;
            }
            self.tokens[token].start = start;
            self.tokens[token].end = self.members.len();
        }
    }

    /// Reads an object member's key, its `:` and the whitespace after it;
    /// the member's value starts at the returned offset.
    fn read_key(&mut self, pos: usize) -> Result<usize, String> {
        let bytes = self.source.as_bytes();
        if bytes.get(pos) != Some(&b'"') {
            return Err(format!("expected `\"` at byte {pos}"));
        }
        let pos = skip_ws(bytes, self.string(pos)?);
        if bytes.get(pos) != Some(&b':') {
            return Err(format!("expected `:` at byte {pos}"));
        }
        Ok(skip_ws(bytes, pos + 1))
    }

    fn literal(&mut self, pos: usize, word: &str, kind: Kind) -> Result<usize, String> {
        if !self.source.as_bytes()[pos..].starts_with(word.as_bytes()) {
            return Err(format!("bad literal at byte {pos}"));
        }
        self.push(kind, false, pos..pos + word.len());
        Ok(pos + word.len())
    }

    fn number(&mut self, start: usize) -> Result<usize, String> {
        let bytes = self.source.as_bytes();
        let mut pos = start + usize::from(bytes[start] == b'-');
        let mut mantissa = digits(bytes, &mut pos);
        if bytes.get(pos) == Some(&b'.') {
            pos += 1;
            mantissa += digits(bytes, &mut pos);
        }
        let mut exponent_ok = true;
        if let Some(b'e' | b'E') = bytes.get(pos) {
            pos += 1;
            if let Some(b'+' | b'-') = bytes.get(pos) {
                pos += 1;
            }
            exponent_ok = digits(bytes, &mut pos) > 0;
        }
        if mantissa == 0 || !exponent_ok {
            return Err(format!(
                "bad number `{}` at byte {start}",
                &self.source[start..pos]
            ));
        }
        self.push(Kind::Number, false, start..pos);
        Ok(pos)
    }

    /// Reads the string whose opening `"` is at `pos`, returning the offset
    /// after its closing `"`.  Every byte it stops on is ASCII, so each run
    /// it copies starts and ends on a char boundary.
    fn string(&mut self, pos: usize) -> Result<usize, String> {
        let bytes = self.source.as_bytes();
        let start = pos + 1;
        let mut pos = quote_or_backslash(bytes, start);
        if bytes.get(pos) == Some(&b'"') {
            self.push(Kind::Text, false, start..pos);
            return Ok(pos + 1);
        }
        let from = self.unescaped.len();
        let mut run = start;
        loop {
            self.unescaped.push_str(&self.source[run..pos]);
            if bytes.get(pos) == Some(&b'"') {
                self.push(Kind::Text, true, from..self.unescaped.len());
                return Ok(pos + 1);
            }
            if pos == bytes.len() {
                return Err("unterminated string".to_owned());
            }
            // `pos` is at a backslash.
            pos += 1;
            let escaped = match bytes.get(pos) {
                Some(b'"') => '"',
                Some(b'\\') => '\\',
                Some(b'/') => '/',
                Some(b'n') => '\n',
                Some(b'r') => '\r',
                Some(b't') => '\t',
                Some(b'b') => '\u{8}',
                Some(b'f') => '\u{c}',
                Some(b'u') => {
                    let digits = self
                        .source
                        .get(pos + 1..pos + 5)
                        .ok_or_else(|| "truncated \\u escape".to_owned())?;
                    let code = u32::from_str_radix(digits, 16)
                        .map_err(|e| format!("bad \\u escape: {e}"))?;
                    pos += 4;
                    char::from_u32(code).ok_or_else(|| format!("bad \\u code point {code:#x}"))?
                }
                other => return Err(format!("bad escape at byte {pos}: {other:?}")),
            };
            self.unescaped.push(escaped);
            run = pos + 1;
            pos = quote_or_backslash(bytes, run);
        }
    }

    /// What the token at `index` is.
    pub(crate) fn kind(&self, index: usize) -> Kind {
        self.tokens[index].kind
    }

    /// The unescaped text of a `Text` token, or the raw text of a `Number`.
    pub(crate) fn text(&self, index: usize) -> &str {
        let token = &self.tokens[index];
        let range = token.start..token.end;
        if token.escaped {
            &self.unescaped[range]
        } else {
            &self.source[range]
        }
    }

    /// The members of an `Object` token; none for any other token.
    pub(crate) fn members(&self, index: usize) -> &[Member] {
        let token = &self.tokens[index];
        match token.kind {
            Kind::Object => &self.members[token.start..token.end],
            _ => &[],
        }
    }

    /// The element tokens of an `Array` token, in order; none for any other
    /// token.
    pub(crate) fn elements(&self, index: usize) -> impl Iterator<Item = usize> + '_ {
        let end = match self.tokens[index].kind {
            Kind::Array => self.tokens[index].next,
            _ => index + 1,
        };
        let first = index + 1;
        std::iter::successors((first < end).then_some(first), move |&element| {
            let next = self.tokens[element].next;
            (next < end).then_some(next)
        })
    }

    /// The position, among `object`'s members, of the first one named
    /// `name`; `None` when it has none or is not an object.
    ///
    /// A reader that takes fields in document order passes its last match:
    /// the search then starts at `cursor`, and `passed`, one
    /// [`filter_bit`] per signature of the members before it, proves that
    /// none of those matches.  When the filter cannot prove it, the search
    /// starts at the first member, so a duplicated name always resolves to
    /// its first occurrence.
    pub(crate) fn find(
        &self,
        object: usize,
        name: &str,
        cursor: usize,
        passed: u64,
    ) -> Option<usize> {
        let members = self.members(object);
        let sig = signature(name.as_bytes());
        let from = if passed & filter_bit(sig) == 0 {
            cursor
        } else {
            0
        };
        members[from..]
            .iter()
            .position(|member| member.sig == sig && self.text(member.key) == name)
            .map(|at| from + at)
    }

    /// The filter bits of `object`'s members in `range` (see
    /// [`Tape::find`]).
    pub(crate) fn filter(&self, object: usize, range: Range<usize>) -> u64 {
        self.members(object)[range]
            .iter()
            .fold(0, |bits, member| bits | filter_bit(member.sig))
    }

    /// The tree of the value at `index`.  The recursion is as deep as the
    /// document's nesting, which [`Tape::parse`] capped.
    fn tree(&self, index: usize) -> JsonValue {
        match self.tokens[index].kind {
            Kind::Null => JsonValue::Null,
            Kind::False => JsonValue::Bool(false),
            Kind::True => JsonValue::Bool(true),
            Kind::Number => JsonValue::Number(self.text(index).to_owned()),
            Kind::Text => JsonValue::Text(self.text(index).to_owned()),
            Kind::Array => JsonValue::Array(self.elements(index).map(|e| self.tree(e)).collect()),
            Kind::Object => JsonValue::Object(
                self.members(index)
                    .iter()
                    .map(|m| (self.text(m.key).to_owned(), self.tree(m.key + 1)))
                    .collect(),
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_and_rerenders_nested_documents() {
        let text = r#"{"op":"explore","points":[{"kernel":"fir","budget":32,"deep":[1,2.5,-3e2]}],"flag":true,"none":null}"#;
        let value = JsonValue::parse(text).expect("parses");
        assert_eq!(value.get("op").and_then(JsonValue::as_str), Some("explore"));
        let points = value.get("points").and_then(JsonValue::as_array).unwrap();
        assert_eq!(
            points[0].get("budget").and_then(JsonValue::as_u64),
            Some(32)
        );
        let deep = points[0].get("deep").unwrap().as_array().unwrap();
        let raw: Vec<&JsonValue> = deep.iter().collect();
        assert_eq!(
            raw,
            ["1", "2.5", "-3e2"]
                .map(|n| JsonValue::Number(n.to_owned()))
                .iter()
                .collect::<Vec<_>>(),
            "raw numbers keep their source text"
        );
        assert_eq!(value.get("flag").and_then(JsonValue::as_bool), Some(true));
        assert_eq!(value.get("none"), Some(&JsonValue::Null));
    }

    #[test]
    fn string_escapes_round_trip() {
        let original = "a\"b\\c\nd\te\u{1}f→g";
        let rendered = {
            let mut out = String::new();
            render_string(&mut out, original);
            out
        };
        let back = JsonValue::parse(&rendered).unwrap();
        assert_eq!(back.as_str(), Some(original));
    }

    #[test]
    fn unicode_escapes_decode() {
        let value = JsonValue::parse("\"\\u0041\\u00e9\\u2192\"").unwrap();
        assert_eq!(value.as_str(), Some("Aé→"));
        // The four characters are one hex number, which may carry a `+`;
        // a surrogate, paired or not, names no char.
        let value = JsonValue::parse("\"\\u+041\"").unwrap();
        assert_eq!(value.as_str(), Some("A"));
        for bad in [
            "\"\\ud83d\\ude80\"",
            "\"\\udc00\"",
            "\"\\u-041\"",
            "\"\\u12\"",
        ] {
            assert!(JsonValue::parse(bad).is_err(), "accepted {bad}");
        }
    }

    #[test]
    fn rejects_malformed_input() {
        // The server answers a malformed line with this text, so it is part
        // of the wire; a byte the reader did not expect prints as a number.
        for (bad, message) in [
            ("", "unexpected value start None at byte 0"),
            ("{", "expected `\"` at byte 1"),
            ("[1,", "unexpected value start None at byte 3"),
            ("[1,@]", "unexpected value start Some(64) at byte 3"),
            ("[1 2]", "expected `,` or `]`, got Some(50)"),
            ("{\"a\":1 2}", "expected `,` or `}`, got Some(50)"),
            ("{\"a\":1", "expected `,` or `}`, got None"),
            ("{1:2}", "expected `\"` at byte 1"),
            ("{\"a\" 1}", "expected `:` at byte 5"),
            ("\"unterminated", "unterminated string"),
            ("\"bad \\q escape\"", "bad escape at byte 6: Some(113)"),
            ("\"\\", "bad escape at byte 2: None"),
            (
                "\"\\u12x\"",
                "bad \\u escape: invalid digit found in string",
            ),
            ("\"\\u12\"", "truncated \\u escape"),
            ("\"\\udc00\"", "bad \\u code point 0xdc00"),
            ("-.", "bad number `-.` at byte 0"),
            ("[1e+]", "bad number `1e+` at byte 1"),
            ("nulL", "bad literal at byte 0"),
            ("01a", "trailing input at byte 2"),
            ("{\"a\":1} trailing", "trailing input at byte 8"),
            (
                &"[".repeat(200),
                "nested deeper than 128 levels at byte 128",
            ),
        ] {
            assert_eq!(JsonValue::parse(bad), Err(message.to_owned()), "`{bad}`");
        }
    }

    #[test]
    fn nesting_is_capped_at_max_depth() {
        let limit = JsonValue::MAX_DEPTH;
        let arrays = |depth: usize| "[".repeat(depth) + &"]".repeat(depth);
        let objects = |depth: usize| "{\"a\":".repeat(depth - 1) + "[]" + &"}".repeat(depth - 1);
        let mut deepest = &JsonValue::parse(&arrays(limit)).expect("the limit parses");
        for _ in 1..limit {
            deepest = &deepest.as_array().expect("nested array")[0];
        }
        assert_eq!(deepest, &JsonValue::Array(Vec::new()));
        assert!(JsonValue::parse(&objects(limit)).is_ok());
        for too_deep in [arrays(limit + 1), objects(limit + 1), "[".repeat(100_000)] {
            let err = JsonValue::parse(&too_deep).expect_err("past the limit");
            assert!(err.contains("nested deeper than 128"), "{err}");
        }
    }

    #[test]
    fn numbers_preserve_source_text() {
        let value = JsonValue::parse("[10.573, 1305.312048, 1e-300]").unwrap();
        let items = value.as_array().unwrap();
        assert_eq!(items[2], JsonValue::Number("1e-300".to_owned()));
        assert_eq!(items[0].as_f64(), Some(10.573));
        assert_eq!(items[1].as_f64(), Some(1_305.312_048));
    }

    /// Every string of up to six characters over the number alphabet, in a
    /// fixed order.
    fn number_like_strings() -> Vec<String> {
        let alphabet = ['0', '1', '.', 'e', 'E', '+', '-'];
        let mut all = vec![String::new()];
        let mut layer = vec![String::new()];
        for _ in 0..6 {
            layer = layer
                .iter()
                .flat_map(|prefix| alphabet.iter().map(move |&c| format!("{prefix}{c}")))
                .collect();
            all.extend(layer.iter().cloned());
        }
        all
    }

    #[test]
    fn number_syntax_is_rusts_float_syntax_over_a_greedy_scan() {
        // The rule the tokenizer implements structurally: a value that
        // starts with `-` or a digit is scanned greedily (sign, digits,
        // fraction, exponent) and must then parse as an `f64`, with nothing
        // left over.
        let greedy = |text: &str| {
            let bytes = text.as_bytes();
            let mut pos = usize::from(bytes.first() == Some(&b'-'));
            digits(bytes, &mut pos);
            if bytes.get(pos) == Some(&b'.') {
                pos += 1;
                digits(bytes, &mut pos);
            }
            if let Some(b'e' | b'E') = bytes.get(pos) {
                pos += 1;
                if let Some(b'+' | b'-') = bytes.get(pos) {
                    pos += 1;
                }
                digits(bytes, &mut pos);
            }
            pos
        };
        let mut accepted = 0;
        for text in number_like_strings() {
            let starts = text.starts_with(|c: char| c == '-' || c.is_ascii_digit());
            let want = starts && greedy(&text) == text.len() && text.parse::<f64>().is_ok();
            let got = JsonValue::parse(&text);
            assert_eq!(got.is_ok(), want, "`{text}`: {got:?}");
            if let Ok(value) = got {
                assert_eq!(value, JsonValue::Number(text.clone()));
                accepted += 1;
            }
        }
        assert!(accepted > 1_000, "{accepted}");
        for (text, ok) in [
            ("1.", true),
            ("-.5", true),
            ("01", true),
            ("1.e5", true),
            ("1e", false),
            ("1e+", false),
            ("-", false),
            ("-.", false),
        ] {
            assert_eq!(JsonValue::parse(text).is_ok(), ok, "`{text}`");
        }
    }

    #[test]
    fn duplicated_members_keep_every_entry_and_get_takes_the_first() {
        let value = JsonValue::parse(r#"{"a":1,"b":2,"a":3,"key":4,"key":5}"#).unwrap();
        let JsonValue::Object(members) = &value else {
            panic!("an object");
        };
        let keys: Vec<&str> = members.iter().map(|(key, _)| key.as_str()).collect();
        assert_eq!(keys, ["a", "b", "a", "key", "key"]);
        assert_eq!(value.get("a").and_then(JsonValue::as_u64), Some(1));
        assert_eq!(value.get("key").and_then(JsonValue::as_u64), Some(4));
    }

    #[test]
    fn lookups_resume_after_the_last_match_but_keep_first_occurrence() {
        let tape = Tape::parse(r#"{"a":1,"b":2,"a":3,"c":4}"#).unwrap();
        // In order: each match starts the next search after it.
        assert_eq!(tape.find(0, "a", 0, 0), Some(0));
        assert_eq!(tape.find(0, "b", 1, tape.filter(0, 0..1)), Some(1));
        // Past both `a`s' first occurrence, the filter sends the search
        // back to the first member.
        assert_eq!(tape.find(0, "a", 2, tape.filter(0, 0..2)), Some(0));
        assert_eq!(tape.find(0, "c", 2, tape.filter(0, 0..2)), Some(3));
        assert_eq!(tape.find(0, "d", 4, tape.filter(0, 0..4)), None);
        // Not an object: nothing to find.
        let tape = Tape::parse("[1]").unwrap();
        assert_eq!(tape.find(0, "a", 0, 0), None);
    }

    /// The escaper before it copied runs: one char at a time.
    fn render_by_char(text: &str) -> String {
        use std::fmt::Write as _;
        let mut out = String::from('"');
        for ch in text.chars() {
            match ch {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                c if (c as u32) < 0x20 => {
                    let _ = write!(out, "\\u{:04x}", c as u32);
                }
                c => out.push(c),
            }
        }
        out.push('"');
        out
    }

    #[test]
    fn the_escaper_writes_the_same_bytes_as_a_char_by_char_escaper() {
        let every_ascii: String = (0u8..0x80).map(char::from).collect();
        for text in [
            "",
            "plain",
            every_ascii.as_str(),
            "ünïcødé — 日本語 🚀\u{7f}\u{80}",
            "\"\u{1f}\\end",
        ] {
            let mut out = String::new();
            render_string(&mut out, text);
            assert_eq!(out, render_by_char(text));
            assert_eq!(JsonValue::parse(&out).unwrap().as_str(), Some(text));
        }
    }
}
