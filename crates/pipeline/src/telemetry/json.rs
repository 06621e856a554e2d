//! A minimal, dependency-free JSON reader and object writer.
//!
//! The repository emits all of its JSON by hand (reports, stats
//! exports, Chrome traces) and stays `std`-only, so this module
//! provides the matching *reader*: a small recursive-descent parser into
//! a [`JsonValue`] tree with the handful of accessors the trace
//! validator and the `wlc top` dashboard need. It is not a
//! general-purpose JSON library — numbers are `f64`, object key order is
//! preserved, and duplicate keys keep their first occurrence.
//!
//! [`JsonObj`] is the matching *writer* for compact single-line objects:
//! the one formatting path shared by the service stats exports
//! (`ServiceStats`, `TenantStats`, `DagStats`), job traces, and the
//! metrics registry dump, so every emitter escapes and formats the same
//! way.

use std::fmt;

use super::report::{jnum, jstr};

/// Builds one compact JSON object (`{"k":v,...}`), fields in insertion
/// order. Strings are escaped with the same rules the report writer
/// uses; non-finite numbers render as `null`.
#[derive(Debug, Default)]
pub struct JsonObj {
    body: String,
}

impl JsonObj {
    /// An empty object builder.
    pub fn new() -> JsonObj {
        JsonObj::default()
    }

    fn key(&mut self, key: &str) {
        if !self.body.is_empty() {
            self.body.push(',');
        }
        self.body.push_str(&jstr(key));
        self.body.push(':');
    }

    /// A field whose value is already valid JSON (nested object, array,
    /// bare literal).
    pub fn raw(mut self, key: &str, value: &str) -> Self {
        self.key(key);
        self.body.push_str(value);
        self
    }

    /// A string field, escaped.
    pub fn str(mut self, key: &str, value: &str) -> Self {
        self.key(key);
        self.body.push_str(&jstr(value));
        self
    }

    /// A numeric field (`null` when not finite). Whole numbers render
    /// without a decimal point (`1`, not `1.0`).
    pub fn num(mut self, key: &str, value: f64) -> Self {
        self.key(key);
        self.body.push_str(&jnum(value));
        self
    }

    /// An unsigned integer field.
    pub fn uint(mut self, key: &str, value: u64) -> Self {
        self.key(key);
        self.body.push_str(&value.to_string());
        self
    }

    /// An array field of pre-serialized JSON values.
    pub fn arr<I>(mut self, key: &str, items: I) -> Self
    where
        I: IntoIterator,
        I::Item: AsRef<str>,
    {
        self.key(key);
        self.body.push('[');
        let mut first = true;
        for item in items {
            if !first {
                self.body.push(',');
            }
            first = false;
            self.body.push_str(item.as_ref());
        }
        self.body.push(']');
        self
    }

    /// Close the object.
    pub fn finish(self) -> String {
        format!("{{{}}}", self.body)
    }
}

/// A parsed JSON document.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (held as `f64`).
    Num(f64),
    /// A string, unescaped.
    Str(String),
    /// An array.
    Arr(Vec<JsonValue>),
    /// An object, in source order.
    Obj(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Parse a complete JSON document; trailing whitespace is allowed,
    /// trailing garbage is an error.
    pub fn parse(src: &str) -> Result<JsonValue, JsonError> {
        let mut p = Parser { bytes: src.as_bytes(), pos: 0 };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after document"));
        }
        Ok(v)
    }

    /// Member lookup on an object (`None` for other variants or a
    /// missing key).
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Obj(members) => {
                members.iter().find(|(k, _)| k == key).map(|(_, v)| v)
            }
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Num(v) => Some(*v),
            _ => None,
        }
    }

    /// The string value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The members, if this is an object.
    pub fn as_object(&self) -> Option<&[(String, JsonValue)]> {
        match self {
            JsonValue::Obj(members) => Some(members),
            _ => None,
        }
    }
}

/// A parse failure: byte offset plus a short description.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset of the failure in the input.
    pub at: usize,
    /// What went wrong.
    pub msg: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON error at byte {}: {}", self.at, self.msg)
    }
}

impl std::error::Error for JsonError {}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, msg: &str) -> JsonError {
        JsonError { at: self.pos, msg: msg.to_string() }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected `{}`", b as char)))
        }
    }

    fn literal(&mut self, word: &str, v: JsonValue) -> Result<JsonValue, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(self.err(&format!("expected `{word}`")))
        }
    }

    fn value(&mut self) -> Result<JsonValue, JsonError> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(JsonValue::Str(self.string()?)),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn object(&mut self) -> Result<JsonValue, JsonError> {
        self.expect(b'{')?;
        let mut members: Vec<(String, JsonValue)> = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let v = self.value()?;
            if !members.iter().any(|(k, _)| *k == key) {
                members.push((key, v));
            }
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Obj(members));
                }
                _ => return Err(self.err("expected `,` or `}` in object")),
            }
        }
    }

    fn array(&mut self) -> Result<JsonValue, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Arr(items));
                }
                _ => return Err(self.err("expected `,` or `]` in array")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or_else(|| self.err("unterminated escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hi = self.hex4()?;
                            let code = if (0xD800..0xDC00).contains(&hi) {
                                // Surrogate pair: expect \uXXXX low half.
                                self.expect(b'\\')?;
                                self.expect(b'u')?;
                                let lo = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return Err(self.err("invalid low surrogate"));
                                }
                                0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
                            } else {
                                hi
                            };
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| self.err("invalid \\u escape"))?,
                            );
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (the input is a &str, so
                    // byte boundaries are valid).
                    let rest = &self.bytes[self.pos..];
                    let s = std::str::from_utf8(rest)
                        .map_err(|_| self.err("invalid UTF-8"))?;
                    let c = s.chars().next().unwrap();
                    if (c as u32) < 0x20 {
                        return Err(self.err("raw control character in string"));
                    }
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let end = self.pos + 4;
        if end > self.bytes.len() {
            return Err(self.err("truncated \\u escape"));
        }
        let s = std::str::from_utf8(&self.bytes[self.pos..end])
            .map_err(|_| self.err("invalid \\u escape"))?;
        let v = u32::from_str_radix(s, 16).map_err(|_| self.err("invalid \\u escape"))?;
        self.pos = end;
        Ok(v)
    }

    fn number(&mut self) -> Result<JsonValue, JsonError> {
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
        let s = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid number"))?;
        s.parse::<f64>()
            .map(JsonValue::Num)
            .map_err(|_| JsonError { at: start, msg: "invalid number".to_string() })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_nested_documents() {
        let v = JsonValue::parse(
            r#"{"a": [1, 2.5, -3e2], "b": {"c": "x\n\"y\""}, "d": null, "e": true}"#,
        )
        .unwrap();
        assert_eq!(v.get("a").unwrap().as_array().unwrap()[2].as_f64(), Some(-300.0));
        assert_eq!(v.get("b").unwrap().get("c").unwrap().as_str(), Some("x\n\"y\""));
        assert_eq!(v.get("d"), Some(&JsonValue::Null));
        assert_eq!(v.get("e"), Some(&JsonValue::Bool(true)));
        assert_eq!(v.get("missing"), None);
    }

    #[test]
    fn rejects_trailing_garbage_and_bad_syntax() {
        assert!(JsonValue::parse("{} x").is_err());
        assert!(JsonValue::parse("{\"a\": }").is_err());
        assert!(JsonValue::parse("[1, 2").is_err());
        assert!(JsonValue::parse("\"unterminated").is_err());
    }

    #[test]
    fn parses_unicode_escapes() {
        let v = JsonValue::parse(r#""é😀""#).unwrap();
        assert_eq!(v.as_str(), Some("é😀"));
    }

    #[test]
    fn round_trips_a_real_report() {
        // The exact strings ExecutionReport emits must parse.
        let doc = "{\"engine\":\"sim\",\"makespan\":123.456,\"per_proc\":[{\"proc\":0}]}";
        let v = JsonValue::parse(doc).unwrap();
        assert_eq!(v.get("engine").unwrap().as_str(), Some("sim"));
        assert_eq!(
            v.get("per_proc").unwrap().as_array().unwrap()[0]
                .get("proc")
                .unwrap()
                .as_f64(),
            Some(0.0)
        );
    }

    #[test]
    fn writer_output_parses_and_preserves_order() {
        let doc = JsonObj::new()
            .str("name", "a\"b")
            .uint("count", 7)
            .num("weight", 1.0)
            .num("bad", f64::NAN)
            .raw("nested", "{\"x\":1}")
            .arr("items", ["1", "\"two\""])
            .finish();
        assert_eq!(
            doc,
            "{\"name\":\"a\\\"b\",\"count\":7,\"weight\":1,\"bad\":null,\
             \"nested\":{\"x\":1},\"items\":[1,\"two\"]}"
        );
        let v = JsonValue::parse(&doc).expect("writer output is valid JSON");
        assert_eq!(v.get("name").unwrap().as_str(), Some("a\"b"));
        assert_eq!(v.get("weight").unwrap().as_f64(), Some(1.0));
        assert_eq!(v.get("bad"), Some(&JsonValue::Null));
    }

    #[test]
    fn empty_writer_is_an_empty_object() {
        assert_eq!(JsonObj::new().finish(), "{}");
        assert!(JsonValue::parse(&JsonObj::new().finish()).is_ok());
    }
}
