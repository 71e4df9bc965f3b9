//! Minimal JSON emission *and* strict parsing — the repo is offline (no
//! serde), and the schemas involved (sweep documents, cache-daemon
//! requests/responses) are small and flat enough that a hand-rolled,
//! dependency-free implementation is the simpler choice.
//!
//! The emitter produces canonical one-line documents with proper string
//! escaping and `null` for non-finite floats. The parser is *strict*: a
//! single complete JSON value, full escape handling (including surrogate
//! pairs), a recursion-depth limit, and nothing but whitespace allowed
//! after the value. Every `--json` artefact and every `lowvcc-serve`
//! request round-trips through it in the integration tests.

use std::fmt;
use std::fmt::Write as _;

/// Escapes `s` as a JSON string literal (with quotes).
#[must_use]
pub fn string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
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

/// Formats a float as a JSON value (`null` when not finite — JSON has no
/// `inf`/`NaN` literals, and emitting them verbatim would corrupt the
/// document).
#[must_use]
pub fn number(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".to_string()
    }
}

/// Renders an object body from `(key, rendered-value)` pairs.
#[must_use]
pub fn object(fields: &[(&str, String)]) -> String {
    let body: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("{}: {v}", string(k)))
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// Renders an array from rendered elements.
#[must_use]
pub fn array(items: &[String]) -> String {
    format!("[{}]", items.join(", "))
}

/// Renders a bool.
#[must_use]
pub fn boolean(b: bool) -> String {
    if b { "true" } else { "false" }.to_string()
}

/// Renders a parsed [`Value`] back to the same canonical one-line form
/// the emitters above produce (round-trips with [`parse`]) — how the
/// sharded router re-emits merged response bodies.
#[must_use]
pub fn render(v: &Value) -> String {
    match v {
        Value::Null => "null".to_string(),
        Value::Bool(b) => boolean(*b),
        Value::Num(x) => number(*x),
        Value::Str(s) => string(s),
        Value::Arr(items) => array(&items.iter().map(render).collect::<Vec<_>>()),
        Value::Obj(fields) => {
            let body: Vec<String> = fields
                .iter()
                .map(|(k, v)| format!("{}: {}", string(k), render(v)))
                .collect();
            format!("{{{}}}", body.join(", "))
        }
    }
}

// --- strict parser --------------------------------------------------------

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (kept as `f64`, like JavaScript).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object, in document order (duplicate keys rejected).
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Object field lookup.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Self::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a float, if it is a number.
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Self::Num(x) => Some(*x),
            _ => None,
        }
    }

    /// The value as a non-negative integer, if it is a whole number.
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            // 2^53 bounds the exactly-representable integers.
            Self::Num(x) if *x >= 0.0 && x.fract() == 0.0 && *x <= 9_007_199_254_740_992.0 => {
                Some(*x as u64)
            }
            _ => None,
        }
    }

    /// The value as a string slice, if it is a string.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Self::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a bool, if it is one.
    #[must_use]
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Self::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an array slice, if it is one.
    #[must_use]
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Self::Arr(items) => Some(items),
            _ => None,
        }
    }
}

/// Parse failure: byte offset plus a static reason.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset of the failure in the input.
    pub offset: usize,
    /// What went wrong.
    pub reason: &'static str,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid JSON at byte {}: {}", self.offset, self.reason)
    }
}

impl std::error::Error for JsonError {}

const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err<T>(&self, reason: &'static str) -> Result<T, JsonError> {
        Err(JsonError {
            offset: self.pos,
            reason,
        })
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        Some(b)
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8, reason: &'static str) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            self.err(reason)
        }
    }

    fn literal(&mut self, word: &str, v: Value) -> Result<Value, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            self.err("invalid literal")
        }
    }

    fn value(&mut self, depth: usize) -> Result<Value, JsonError> {
        if depth > MAX_DEPTH {
            return self.err("nesting too deep");
        }
        self.skip_ws();
        match self.peek() {
            None => self.err("unexpected end of input"),
            Some(b'n') => self.literal("null", Value::Null),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b'[') => self.array(depth),
            Some(b'{') => self.object(depth),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => self.err("unexpected character"),
        }
    }

    fn array(&mut self, depth: usize) -> Result<Value, JsonError> {
        self.expect(b'[', "expected '['")?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.bump() {
                Some(b',') => {}
                Some(b']') => return Ok(Value::Arr(items)),
                _ => {
                    self.pos = self.pos.saturating_sub(1);
                    return self.err("expected ',' or ']'");
                }
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Value, JsonError> {
        self.expect(b'{', "expected '{'")?;
        let mut fields: Vec<(String, Value)> = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Obj(fields));
        }
        loop {
            self.skip_ws();
            if self.peek() != Some(b'"') {
                return self.err("expected object key");
            }
            let key = self.string()?;
            if fields.iter().any(|(k, _)| *k == key) {
                return self.err("duplicate object key");
            }
            self.skip_ws();
            self.expect(b':', "expected ':'")?;
            let v = self.value(depth + 1)?;
            fields.push((key, v));
            self.skip_ws();
            match self.bump() {
                Some(b',') => {}
                Some(b'}') => return Ok(Value::Obj(fields)),
                _ => {
                    self.pos = self.pos.saturating_sub(1);
                    return self.err("expected ',' or '}'");
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u16, JsonError> {
        let mut v: u16 = 0;
        for _ in 0..4 {
            let d = match self.bump() {
                Some(b @ b'0'..=b'9') => b - b'0',
                Some(b @ b'a'..=b'f') => b - b'a' + 10,
                Some(b @ b'A'..=b'F') => b - b'A' + 10,
                _ => return self.err("invalid \\u escape"),
            };
            v = v << 4 | u16::from(d);
        }
        Ok(v)
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"', "expected '\"'")?;
        let mut out = String::new();
        loop {
            match self.bump() {
                None => return self.err("unterminated string"),
                Some(b'"') => return Ok(out),
                Some(b'\\') => match self.bump() {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'u') => {
                        let hi = self.hex4()?;
                        let c = if (0xD800..0xDC00).contains(&hi) {
                            // Surrogate pair: require the low half.
                            if self.bump() != Some(b'\\') || self.bump() != Some(b'u') {
                                return self.err("unpaired surrogate");
                            }
                            let lo = self.hex4()?;
                            if !(0xDC00..0xE000).contains(&lo) {
                                return self.err("invalid low surrogate");
                            }
                            let code = 0x10000
                                + (u32::from(hi) - 0xD800) * 0x400
                                + (u32::from(lo) - 0xDC00);
                            char::from_u32(code).ok_or(JsonError {
                                offset: self.pos,
                                reason: "invalid surrogate pair",
                            })?
                        } else if (0xDC00..0xE000).contains(&hi) {
                            return self.err("unpaired low surrogate");
                        } else {
                            char::from_u32(u32::from(hi)).ok_or(JsonError {
                                offset: self.pos,
                                reason: "invalid \\u escape",
                            })?
                        };
                        out.push(c);
                    }
                    _ => return self.err("invalid escape"),
                },
                Some(b) if b < 0x20 => return self.err("control character in string"),
                Some(b) => {
                    // Re-decode UTF-8 multibyte sequences from the raw input.
                    if b < 0x80 {
                        out.push(b as char);
                    } else {
                        let start = self.pos - 1;
                        let len = match b {
                            0xC0..=0xDF => 2,
                            0xE0..=0xEF => 3,
                            0xF0..=0xF7 => 4,
                            _ => return self.err("invalid UTF-8"),
                        };
                        if start + len > self.bytes.len() {
                            return self.err("invalid UTF-8");
                        }
                        let s =
                            std::str::from_utf8(&self.bytes[start..start + len]).map_err(|_| {
                                JsonError {
                                    offset: start,
                                    reason: "invalid UTF-8",
                                }
                            })?;
                        out.push_str(s);
                        self.pos = start + len;
                    }
                }
            }
        }
    }

    fn number(&mut self) -> Result<Value, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        // Integer part: one digit, or a non-zero digit followed by more.
        match self.bump() {
            Some(b'0') => {}
            Some(b'1'..=b'9') => {
                while matches!(self.peek(), Some(b'0'..=b'9')) {
                    self.pos += 1;
                }
            }
            _ => {
                self.pos = start;
                return self.err("invalid number");
            }
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return self.err("digits required after decimal point");
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return self.err("digits required in exponent");
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ASCII");
        text.parse::<f64>().map(Value::Num).map_err(|_| JsonError {
            offset: start,
            reason: "number out of range",
        })
    }
}

/// Strictly parses exactly one JSON value from `input`.
///
/// # Errors
///
/// Returns a [`JsonError`] (offset + reason) on any deviation from the
/// JSON grammar, on duplicate object keys, on nesting deeper than 128,
/// and on trailing non-whitespace after the value.
pub fn parse(input: &str) -> Result<Value, JsonError> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
    };
    let v = p.value(0)?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return p.err("trailing characters after value");
    }
    Ok(v)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn emits_and_reparses_objects() {
        let doc = object(&[
            ("name", string("trace \"a\"\n")),
            ("x", number(1.5)),
            ("bad", number(f64::INFINITY)),
            ("nan", number(f64::NAN)),
            ("flag", boolean(true)),
            ("items", array(&[number(1.0), number(2.0)])),
        ]);
        let v = parse(&doc).unwrap();
        assert_eq!(v.get("name").unwrap().as_str(), Some("trace \"a\"\n"));
        assert_eq!(v.get("x").unwrap().as_f64(), Some(1.5));
        assert_eq!(v.get("bad"), Some(&Value::Null));
        assert_eq!(v.get("nan"), Some(&Value::Null));
        assert_eq!(v.get("flag").unwrap().as_bool(), Some(true));
        assert_eq!(v.get("items").unwrap().as_array().unwrap().len(), 2);
    }

    #[test]
    fn render_round_trips_documents() {
        let doc = object(&[
            ("name", string("a \"quoted\" name")),
            ("x", number(1.5)),
            ("missing", "null".to_string()),
            ("flag", boolean(false)),
            ("items", array(&[number(1.0), string("two")])),
            ("nested", object(&[("k", number(-3.25))])),
        ]);
        let v = parse(&doc).unwrap();
        let rendered = render(&v);
        assert_eq!(parse(&rendered).unwrap(), v, "render must round-trip");
        // Canonical form is stable: rendering the emitter's own output
        // reproduces it byte for byte.
        assert_eq!(rendered, doc);
    }

    #[test]
    fn number_emission_round_trips_exactly() {
        for x in [0.0, -1.0, 1.5, 1e300, 1e-300, 0.1, 123_456_789.123_456_7] {
            let v = parse(&number(x)).unwrap();
            assert_eq!(v.as_f64(), Some(x), "{x}");
        }
    }

    #[test]
    fn parses_escapes_and_unicode() {
        let v = parse(r#""a\u00e9b\ud83d\ude00c\td""#).unwrap();
        assert_eq!(v.as_str(), Some("aéb😀c\td"));
        // Raw multibyte UTF-8 passes through.
        let v = parse("\"héllo — ok\"").unwrap();
        assert_eq!(v.as_str(), Some("héllo — ok"));
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\":1,}",
            "01",
            "1.",
            "1e",
            "+1",
            "nul",
            "\"unterminated",
            "\"\\q\"",
            "\"\\ud800x\"",
            "{\"a\":1 \"b\":2}",
            "1 2",
            "{\"a\":1,\"a\":2}",
            "[1] []",
            "'single'",
            "{\"a\"}",
        ] {
            assert!(parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn depth_limit_enforced() {
        let deep = "[".repeat(200) + &"]".repeat(200);
        let err = parse(&deep).unwrap_err();
        assert_eq!(err.reason, "nesting too deep");
        let ok = "[".repeat(50) + "1" + &"]".repeat(50);
        assert!(parse(&ok).is_ok());
    }

    #[test]
    fn strictness_allows_surrounding_whitespace_only() {
        assert!(parse("  {\"a\": [1, 2, 3]}  \n").is_ok());
        assert!(parse("  {} x").is_err());
    }

    #[test]
    fn error_display_carries_offset() {
        let e = parse("[1, x]").unwrap_err();
        assert!(e.to_string().contains("byte 4"), "{e}");
    }
}
