//! A minimal recursive JSON reader/writer, shared by the JSONL cache files
//! ([`PointRecord`](crate::PointRecord)) and the serve layer's wire protocol.
//!
//! The workspace's `serde` is an offline no-op shim, so the workspace carries
//! its own small JSON value type.  Numbers are kept as their raw source text:
//! the parser never converts to `f64` and back, so re-rendering a parsed value
//! reproduces the original digits exactly, and
//! [`PointRecord::from_json_value`](crate::PointRecord::from_json_value)
//! decodes the f64 fields of an embedded record bit-exactly.

use std::fmt::Write as _;

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
    /// The parser recurses once per level, so the cap bounds its stack use.
    /// The deepest message the workspace writes (a `series` or `metrics`
    /// reply) nests about 6 levels.
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
        let mut parser = Parser {
            text,
            pos: 0,
            depth: 0,
        };
        parser.skip_ws();
        let value = parser.value()?;
        parser.skip_ws();
        if parser.pos != parser.text.len() {
            return Err(format!("trailing input at byte {}", parser.pos));
        }
        Ok(value)
    }

    /// Renders the value as compact JSON (no added whitespace).
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out);
        out
    }

    /// Renders the value as compact JSON into an existing buffer, so hot
    /// paths can reuse one allocation across many renders.
    pub fn render_into(&self, out: &mut String) {
        match self {
            JsonValue::Null => out.push_str("null"),
            JsonValue::Bool(true) => out.push_str("true"),
            JsonValue::Bool(false) => out.push_str("false"),
            JsonValue::Number(raw) => out.push_str(raw),
            JsonValue::Text(text) => render_string(out, text),
            JsonValue::Array(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.render_into(out);
                }
                out.push(']');
            }
            JsonValue::Object(fields) => {
                out.push('{');
                for (i, (name, value)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    render_string(out, name);
                    out.push(':');
                    value.render_into(out);
                }
                out.push('}');
            }
        }
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

/// Writes `text` as a quoted, escaped JSON string.
///
/// Public so the protocol layer can render request/response lines directly
/// into a reused buffer without building a [`JsonValue`] tree first; the
/// escaping matches [`JsonValue::render`] byte for byte.
pub fn render_string(out: &mut String, text: &str) {
    out.push('"');
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
}

/// The parse cursor.  `pos` is a byte offset that only ever stops on a
/// char boundary: every token it steps over is ASCII, and strings are left
/// just past their closing `"`.  `depth` counts the arrays and objects open
/// at the cursor.
struct Parser<'a> {
    text: &'a str,
    pos: usize,
    depth: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn expect(&mut self, byte: u8) -> Result<(), String> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!(
                "expected `{}` at byte {}",
                char::from(byte),
                self.pos
            ))
        }
    }

    fn literal(&mut self, word: &str, value: JsonValue) -> Result<JsonValue, String> {
        if self.text[self.pos..].starts_with(word) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<JsonValue, String> {
        match self.peek() {
            Some(open @ (b'{' | b'[')) => {
                if self.depth == JsonValue::MAX_DEPTH {
                    return Err(format!(
                        "nested deeper than {} levels at byte {}",
                        JsonValue::MAX_DEPTH,
                        self.pos
                    ));
                }
                self.depth += 1;
                let value = if open == b'{' {
                    self.object()
                } else {
                    self.array()
                };
                self.depth -= 1;
                value
            }
            Some(b'"') => Ok(JsonValue::Text(self.string()?)),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            other => Err(format!(
                "unexpected value start {other:?} at byte {}",
                self.pos
            )),
        }
    }

    fn object(&mut self) -> Result<JsonValue, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Object(fields));
        }
        loop {
            self.skip_ws();
            let name = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            fields.push((name, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Object(fields));
                }
                other => return Err(format!("expected `,` or `}}`, got {other:?}")),
            }
        }
    }

    fn array(&mut self) -> Result<JsonValue, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Array(items));
                }
                other => return Err(format!("expected `,` or `]`, got {other:?}")),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // Copy the run up to the next `"` or `\` in one piece.  Both are
            // ASCII, so the run ends on a char boundary, and the scan never
            // looks past this string.
            let rest = &self.text[self.pos..];
            let run = rest
                .find(['"', '\\'])
                .ok_or_else(|| "unterminated string".to_owned())?;
            out.push_str(&rest[..run]);
            self.pos += run + 1;
            if rest.as_bytes()[run] == b'"' {
                return Ok(out);
            }
            let escaped = match self.peek() {
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
                        .text
                        .get(self.pos + 1..self.pos + 5)
                        .ok_or_else(|| "truncated \\u escape".to_owned())?;
                    let code = u32::from_str_radix(digits, 16)
                        .map_err(|e| format!("bad \\u escape: {e}"))?;
                    self.pos += 4;
                    char::from_u32(code).ok_or_else(|| format!("bad \\u code point {code:#x}"))?
                }
                other => return Err(format!("bad escape at byte {}: {other:?}", self.pos)),
            };
            self.pos += 1;
            out.push(escaped);
        }
    }

    fn number(&mut self) -> Result<JsonValue, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let raw = &self.text[start..self.pos];
        if raw.parse::<f64>().is_err() {
            return Err(format!("bad number `{raw}` at byte {start}"));
        }
        Ok(JsonValue::Number(raw.to_owned()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_and_rerenders_nested_documents() {
        let text = r#"{"op":"explore","points":[{"kernel":"fir","budget":32,"deep":[1,2.5,-3e2]}],"flag":true,"none":null}"#;
        let value = JsonValue::parse(text).expect("parses");
        assert_eq!(
            value.render(),
            text,
            "raw numbers re-render byte-identically"
        );
        assert_eq!(value.get("op").and_then(JsonValue::as_str), Some("explore"));
        let points = value.get("points").and_then(JsonValue::as_array).unwrap();
        assert_eq!(
            points[0].get("budget").and_then(JsonValue::as_u64),
            Some(32)
        );
        assert_eq!(points[0].get("deep").unwrap().as_array().unwrap().len(), 3);
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
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in [
            "",
            "{",
            "[1,",
            "\"unterminated",
            "{\"a\" 1}",
            "{\"a\":1} trailing",
            "01a",
            "nulL",
            "\"bad \\q escape\"",
        ] {
            assert!(JsonValue::parse(bad).is_err(), "accepted `{bad}`");
        }
    }

    #[test]
    fn nesting_is_capped_at_max_depth() {
        let limit = JsonValue::MAX_DEPTH;
        let arrays = |depth: usize| "[".repeat(depth) + &"]".repeat(depth);
        let objects = |depth: usize| "{\"a\":".repeat(depth - 1) + "[]" + &"}".repeat(depth - 1);
        let deepest = JsonValue::parse(&arrays(limit)).expect("the limit parses");
        assert_eq!(deepest.render(), arrays(limit));
        assert!(JsonValue::parse(&objects(limit)).is_ok());
        for too_deep in [arrays(limit + 1), objects(limit + 1), "[".repeat(100_000)] {
            let err = JsonValue::parse(&too_deep).expect_err("past the limit");
            assert!(err.contains("nested deeper than 128"), "{err}");
        }
    }

    #[test]
    fn numbers_preserve_source_text() {
        let value = JsonValue::parse("[10.573, 1305.312048, 1e-300]").unwrap();
        assert_eq!(value.render(), "[10.573,1305.312048,1e-300]");
        let items = value.as_array().unwrap();
        assert_eq!(items[0].as_f64(), Some(10.573));
        assert_eq!(items[1].as_f64(), Some(1_305.312_048));
    }
}
