//! Minimal JSON parsing for request bodies.
//!
//! The workspace is dependency-free, so the server carries its own
//! recursive-descent parser. It is deliberately small: objects are kept
//! as ordered `Vec<(String, JsonValue)>` pairs (no hash maps — key order
//! stays deterministic and the nondeterminism lint stays happy), numbers
//! are `f64`, and depth is bounded so a hostile body cannot overflow the
//! stack. Serialization lives with the producers ([`ServerStats::to_json`]
//! and friends format their own objects); this module only reads.
//!
//! [`ServerStats::to_json`]: crate::ServerStats::to_json

/// Maximum nesting depth accepted by [`parse_json`]. Request bodies are
/// flat (camera/trajectory parameters), so anything deeper is hostile.
pub(crate) const MAX_JSON_DEPTH: usize = 32;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (always carried as `f64`).
    Number(f64),
    /// A string with escapes resolved.
    String(String),
    /// An array of values.
    Array(Vec<JsonValue>),
    /// An object as ordered key/value pairs (first match wins on lookup).
    Object(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Looks up `key` in an object (first match); `None` for other
    /// variants or missing keys.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(pairs) => pairs
                .iter()
                .find(|(name, _)| name == key)
                .map(|(_, value)| value),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    pub(crate) fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Number(value) => Some(*value),
            _ => None,
        }
    }

    /// The numeric value as an exact non-negative integer: finite, no
    /// fractional part, and within `u64` range.
    pub fn as_u64(&self) -> Option<u64> {
        let value = self.as_f64()?;
        if value.is_finite() && value >= 0.0 && value.fract() == 0.0 && value <= u64::MAX as f64 {
            Some(value as u64)
        } else {
            None
        }
    }

    /// The string contents, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::String(text) => Some(text.as_str()),
            _ => None,
        }
    }

    /// The element list, if this is an array.
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Array(items) => Some(items.as_slice()),
            _ => None,
        }
    }
}

/// A parse failure: byte offset plus a static description.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset into the input where parsing stopped.
    pub(crate) offset: usize,
    /// What went wrong.
    pub(crate) message: &'static str,
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid JSON at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

/// Parses one JSON document; trailing non-whitespace is an error.
pub fn parse_json(text: &str) -> Result<JsonValue, JsonError> {
    let mut parser = Parser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    parser.skip_whitespace();
    let value = parser.parse_value(0)?;
    parser.skip_whitespace();
    if parser.pos < parser.bytes.len() {
        return Err(parser.error("trailing characters after document"));
    }
    Ok(value)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn error(&self, message: &'static str) -> JsonError {
        JsonError {
            offset: self.pos,
            message,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let byte = self.peek()?;
        self.pos += 1;
        Some(byte)
    }

    fn skip_whitespace(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect_byte(&mut self, byte: u8, message: &'static str) -> Result<(), JsonError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(message))
        }
    }

    fn eat_literal(&mut self, literal: &str) -> bool {
        let end = self.pos + literal.len();
        if self.bytes.get(self.pos..end) == Some(literal.as_bytes()) {
            self.pos = end;
            true
        } else {
            false
        }
    }

    fn parse_value(&mut self, depth: usize) -> Result<JsonValue, JsonError> {
        if depth > MAX_JSON_DEPTH {
            return Err(self.error("nesting too deep"));
        }
        self.skip_whitespace();
        match self.peek() {
            Some(b'{') => self.parse_object(depth),
            Some(b'[') => self.parse_array(depth),
            Some(b'"') => Ok(JsonValue::String(self.parse_string()?)),
            Some(b't') | Some(b'f') => {
                if self.eat_literal("true") {
                    Ok(JsonValue::Bool(true))
                } else if self.eat_literal("false") {
                    Ok(JsonValue::Bool(false))
                } else {
                    Err(self.error("invalid literal"))
                }
            }
            Some(b'n') => {
                if self.eat_literal("null") {
                    Ok(JsonValue::Null)
                } else {
                    Err(self.error("invalid literal"))
                }
            }
            Some(b'-') | Some(b'0'..=b'9') => self.parse_number(),
            Some(_) => Err(self.error("unexpected character")),
            None => Err(self.error("unexpected end of input")),
        }
    }

    fn parse_object(&mut self, depth: usize) -> Result<JsonValue, JsonError> {
        self.expect_byte(b'{', "expected object")?;
        let mut pairs = Vec::new();
        self.skip_whitespace();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Object(pairs));
        }
        loop {
            self.skip_whitespace();
            let key = self.parse_string()?;
            self.skip_whitespace();
            self.expect_byte(b':', "expected ':' after object key")?;
            let value = self.parse_value(depth + 1)?;
            pairs.push((key, value));
            self.skip_whitespace();
            match self.bump() {
                Some(b',') => continue,
                Some(b'}') => return Ok(JsonValue::Object(pairs)),
                _ => return Err(self.error("expected ',' or '}' in object")),
            }
        }
    }

    fn parse_array(&mut self, depth: usize) -> Result<JsonValue, JsonError> {
        self.expect_byte(b'[', "expected array")?;
        let mut items = Vec::new();
        self.skip_whitespace();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Array(items));
        }
        loop {
            items.push(self.parse_value(depth + 1)?);
            self.skip_whitespace();
            match self.bump() {
                Some(b',') => continue,
                Some(b']') => return Ok(JsonValue::Array(items)),
                _ => return Err(self.error("expected ',' or ']' in array")),
            }
        }
    }

    fn parse_string(&mut self) -> Result<String, JsonError> {
        self.expect_byte(b'"', "expected string")?;
        let mut out = String::new();
        loop {
            match self.bump() {
                Some(b'"') => return Ok(out),
                Some(b'\\') => match self.bump() {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'b') => out.push('\u{0008}'),
                    Some(b'f') => out.push('\u{000C}'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'u') => out.push(self.parse_unicode_escape()?),
                    _ => return Err(self.error("invalid escape sequence")),
                },
                Some(byte) if byte < 0x20 => {
                    return Err(self.error("unescaped control character in string"));
                }
                Some(byte) => {
                    // Re-assemble multi-byte UTF-8 sequences: the input is
                    // a &str, so continuation bytes are guaranteed valid.
                    let len = utf8_len(byte);
                    let start = self.pos - 1;
                    let end = start + len;
                    let chunk = self
                        .bytes
                        .get(start..end)
                        .and_then(|chunk| std::str::from_utf8(chunk).ok())
                        .ok_or_else(|| self.error("invalid UTF-8 in string"))?;
                    out.push_str(chunk);
                    self.pos = end;
                }
                None => return Err(self.error("unterminated string")),
            }
        }
    }

    fn parse_unicode_escape(&mut self) -> Result<char, JsonError> {
        let first = self.parse_hex4()?;
        // Surrogate pair: a high surrogate must be followed by \u and a
        // low surrogate; anything else is malformed.
        if (0xD800..=0xDBFF).contains(&first) {
            if self.bump() != Some(b'\\') || self.bump() != Some(b'u') {
                return Err(self.error("unpaired surrogate escape"));
            }
            let second = self.parse_hex4()?;
            if !(0xDC00..=0xDFFF).contains(&second) {
                return Err(self.error("unpaired surrogate escape"));
            }
            let combined = 0x10000 + ((first - 0xD800) << 10) + (second - 0xDC00);
            return char::from_u32(combined).ok_or_else(|| self.error("invalid surrogate pair"));
        }
        if (0xDC00..=0xDFFF).contains(&first) {
            return Err(self.error("unpaired surrogate escape"));
        }
        char::from_u32(first).ok_or_else(|| self.error("invalid unicode escape"))
    }

    fn parse_hex4(&mut self) -> Result<u32, JsonError> {
        let mut value = 0u32;
        for _ in 0..4 {
            let digit = match self.bump() {
                Some(byte @ b'0'..=b'9') => u32::from(byte - b'0'),
                Some(byte @ b'a'..=b'f') => u32::from(byte - b'a') + 10,
                Some(byte @ b'A'..=b'F') => u32::from(byte - b'A') + 10,
                _ => return Err(self.error("invalid hex digit in unicode escape")),
            };
            value = (value << 4) | digit;
        }
        Ok(value)
    }

    fn parse_number(&mut self) -> Result<JsonValue, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = self
            .bytes
            .get(start..self.pos)
            .and_then(|chunk| std::str::from_utf8(chunk).ok())
            .ok_or_else(|| self.error("invalid number"))?;
        let value: f64 = text.parse().map_err(|_| self.error("invalid number"))?;
        if value.is_finite() {
            Ok(JsonValue::Number(value))
        } else {
            Err(self.error("number out of range"))
        }
    }
}

/// Length in bytes of the UTF-8 sequence starting with `byte` (the
/// input came from a `&str`, so the leading byte is always valid).
fn utf8_len(byte: u8) -> usize {
    if byte < 0x80 {
        1
    } else if byte < 0xE0 {
        2
    } else if byte < 0xF0 {
        3
    } else {
        4
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_flat_render_request_shapes() {
        let body = r#"{"scene_id": 3, "priority": "high",
                       "camera": {"eye": [0.0, 1.5, -4.0], "fov_y": 0.8,
                                  "width": 64, "height": 48}}"#;
        let value = parse_json(body).expect("valid body");
        assert_eq!(value.get("scene_id").and_then(JsonValue::as_u64), Some(3));
        assert_eq!(
            value.get("priority").and_then(JsonValue::as_str),
            Some("high")
        );
        let camera = value.get("camera").expect("camera object");
        let eye = camera
            .get("eye")
            .and_then(JsonValue::as_array)
            .expect("eye");
        assert_eq!(eye.len(), 3);
        assert_eq!(eye.first().and_then(JsonValue::as_f64), Some(0.0));
        assert_eq!(camera.get("width").and_then(JsonValue::as_u64), Some(64));
    }

    #[test]
    fn parses_literals_strings_and_escapes() {
        let value = parse_json(r#"{"a": null, "b": true, "c": "x\n\u0041\u00e9"}"#)
            .expect("valid document");
        assert_eq!(value.get("a"), Some(&JsonValue::Null));
        assert_eq!(value.get("b"), Some(&JsonValue::Bool(true)));
        assert_eq!(value.get("c").and_then(JsonValue::as_str), Some("x\nAé"));
        let pair = parse_json(r#""\ud83d\ude00""#).expect("surrogate pair");
        assert_eq!(pair.as_str(), Some("😀"));
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\" 1}",
            "{\"a\": 1} extra",
            "\"unterminated",
            "nul",
            "1e999",
            "\"\\ud800\"",
        ] {
            assert!(parse_json(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn depth_limit_stops_hostile_nesting() {
        let nested = |arrays: usize| format!("{}{}", "[".repeat(arrays), "]".repeat(arrays));
        // The top-level value is at depth 0, so `MAX_JSON_DEPTH + 1` arrays
        // put the innermost at exactly the limit; one more is refused.
        assert!(parse_json(&nested(MAX_JSON_DEPTH + 1)).is_ok());
        assert!(parse_json(&nested(MAX_JSON_DEPTH + 2)).is_err());
        let shallow = "[[[[0]]]]";
        assert!(parse_json(shallow).is_ok());
    }

    #[test]
    fn numeric_accessors_guard_their_domains() {
        let value = parse_json("[1.5, -2, 7]").expect("array");
        let items = value.as_array().expect("items");
        assert_eq!(items.first().and_then(JsonValue::as_u64), None);
        assert_eq!(items.get(1).and_then(JsonValue::as_u64), None);
        assert_eq!(items.get(2).and_then(JsonValue::as_u64), Some(7));
    }
}
