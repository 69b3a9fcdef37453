//! Minimal JSON support for metric/trace export and the wire protocols.
//!
//! The simulator runs in fully offline environments with no registry access,
//! so it cannot depend on `serde`. Two halves live here:
//!
//! * **Writing** — [`write_string`] / [`write_u64_fields`] append escaped
//!   fragments to a `String`, guaranteeing deterministic output (no maps
//!   with randomized iteration order, no float formatting ambiguity).
//! * **Reading** — [`JsonValue`] is a small recursive-descent parser over
//!   the full JSON grammar. Numbers keep their *raw source text* (see
//!   [`JsonValue::Num`]), so `parse(render(v)) == v` is exact for `u64`s
//!   beyond 2^53 and for shortest-round-trip `f64`s alike — the property
//!   the result cache, the `RunSpec` API and the job-server protocol all
//!   rely on for byte-identical round trips.
//!
//! # Examples
//!
//! ```
//! use pxl_sim::json::JsonValue;
//!
//! let v = JsonValue::parse(r#"{"name":"uts","pes":[4,8],"ok":true}"#).unwrap();
//! assert_eq!(v.get("name").and_then(JsonValue::as_str), Some("uts"));
//! assert_eq!(v.get("pes").unwrap().as_array().unwrap().len(), 2);
//! assert_eq!(v.get("ok").and_then(JsonValue::as_bool), Some(true));
//! // Rendering is deterministic and round-trips byte-identically.
//! assert_eq!(JsonValue::parse(&v.to_json()).unwrap(), v);
//! ```

/// Appends `s` as a JSON string literal (with quotes) to `out`.
pub fn write_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Appends comma-separated `"name":value` pairs to `out` (no braces).
pub fn write_u64_fields(out: &mut String, fields: &[(&str, u64)]) {
    for (i, (name, value)) in fields.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write_string(out, name);
        out.push(':');
        out.push_str(&value.to_string());
    }
}

/// A parse failure: what went wrong and the byte offset it went wrong at.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset into the input where the problem was detected.
    pub offset: usize,
    /// What the parser expected or found.
    pub message: String,
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} at byte {}", self.message, self.offset)
    }
}

impl std::error::Error for JsonError {}

/// A parsed JSON value.
///
/// Objects keep their members in *source order* (`Vec`, not a map), so a
/// parse → render cycle is deterministic and byte-preserving for canonical
/// input. Numbers are kept as raw text; use the `as_u64`/`as_i64`/`as_f64`
/// accessors to interpret them.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number, as its raw source token (e.g. `"-12.5e3"`).
    Num(String),
    /// A string (unescaped).
    Str(String),
    /// An array.
    Array(Vec<JsonValue>),
    /// An object: members in source order.
    Object(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Parses one complete JSON document (trailing whitespace allowed).
    ///
    /// # Errors
    ///
    /// Returns a [`JsonError`] naming the problem and its byte offset.
    pub fn parse(text: &str) -> Result<JsonValue, JsonError> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let value = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after the document"));
        }
        Ok(value)
    }

    /// A number value from a `u64`.
    pub fn num_u64(n: u64) -> JsonValue {
        JsonValue::Num(n.to_string())
    }

    /// A number value from an `f64`, written with Rust's shortest
    /// round-trip `Display` (so re-parsing is bit-exact).
    pub fn num_f64(x: f64) -> JsonValue {
        JsonValue::Num(x.to_string())
    }

    /// Object member lookup (first match; `None` for non-objects).
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The number as a `u64`, if it parses exactly as one.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::Num(raw) => raw.parse().ok(),
            _ => None,
        }
    }

    /// The number as an `i64`, if it parses exactly as one.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            JsonValue::Num(raw) => raw.parse().ok(),
            _ => None,
        }
    }

    /// The number as an `f64`.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Num(raw) => raw.parse().ok(),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The members in source order, if this is an object.
    pub fn as_object(&self) -> Option<&[(String, JsonValue)]> {
        match self {
            JsonValue::Object(members) => Some(members),
            _ => None,
        }
    }

    /// Whether this is `null`.
    pub fn is_null(&self) -> bool {
        matches!(self, JsonValue::Null)
    }

    /// Appends the value's canonical rendering (no whitespace, members in
    /// stored order, numbers as their raw tokens) to `out`.
    pub fn write(&self, out: &mut String) {
        match self {
            JsonValue::Null => out.push_str("null"),
            JsonValue::Bool(true) => out.push_str("true"),
            JsonValue::Bool(false) => out.push_str("false"),
            JsonValue::Num(raw) => out.push_str(raw),
            JsonValue::Str(s) => write_string(out, s),
            JsonValue::Array(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            JsonValue::Object(members) => {
                out.push('{');
                for (i, (k, v)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_string(out, k);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }

    /// The value's canonical rendering as a fresh string.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }
}

/// How deeply arrays and objects may nest. The parser recurses once per
/// level, so an unbounded depth lets one hostile line (say, 100,000 `[`)
/// overflow the stack of whichever thread reads it. Real documents are
/// shallow: engine snapshots nest 9 levels, run specs 3.
const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open around `pos`.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: impl Into<String>) -> JsonError {
        JsonError {
            offset: self.pos,
            message: message.into(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, byte: u8) -> Result<(), JsonError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected '{}'", byte as char)))
        }
    }

    fn literal(&mut self, word: &str, value: JsonValue) -> Result<JsonValue, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(format!("expected '{word}'")))
        }
    }

    fn value(&mut self) -> Result<JsonValue, JsonError> {
        match self.peek() {
            None => Err(self.err("unexpected end of input")),
            Some(open @ (b'{' | b'[')) => {
                if self.depth == MAX_DEPTH {
                    return Err(self.err(format!("nesting deeper than {MAX_DEPTH} levels")));
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
            Some(b'"') => Ok(JsonValue::Str(self.string()?)),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(c) => Err(self.err(format!("unexpected character '{}'", c as char))),
        }
    }

    fn object(&mut self) -> Result<JsonValue, JsonError> {
        self.expect(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Object(members));
        }
        loop {
            self.skip_ws();
            let key = self.string().map_err(|e| JsonError {
                message: format!("object key: {}", e.message),
                ..e
            })?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            members.push((key, self.value()?));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Object(members));
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    fn array(&mut self) -> Result<JsonValue, JsonError> {
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
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            // Fast path: a run of plain bytes.
            while let Some(c) = self.peek() {
                if c == b'"' || c == b'\\' || c < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            out.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| self.err("invalid UTF-8 in string"))?,
            );
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .ok_or_else(|| self.err("truncated \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("bad \\u escape"))?;
                            // Surrogate pairs are not produced by our
                            // writers; reject rather than mis-decode.
                            let c = char::from_u32(code)
                                .ok_or_else(|| self.err("\\u escape is not a scalar value"))?;
                            out.push(c);
                            self.pos += 4;
                        }
                        _ => return Err(self.err("bad escape sequence")),
                    }
                    self.pos += 1;
                }
                Some(_) => return Err(self.err("unescaped control character in string")),
                None => return Err(self.err("unterminated string")),
            }
        }
    }

    fn number(&mut self) -> Result<JsonValue, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let digits_from = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.pos == digits_from {
            return Err(self.err("expected digits in number"));
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            let frac_from = self.pos;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
            if self.pos == frac_from {
                return Err(self.err("expected digits after '.'"));
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            let exp_from = self.pos;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
            if self.pos == exp_from {
                return Err(self.err("expected digits in exponent"));
            }
        }
        let raw = std::str::from_utf8(&self.bytes[start..self.pos])
            .expect("number tokens are ASCII")
            .to_owned();
        Ok(JsonValue::Num(raw))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strings_are_escaped() {
        let mut s = String::new();
        write_string(&mut s, "a\"b\\c\nd\u{1}");
        assert_eq!(s, "\"a\\\"b\\\\c\\nd\\u0001\"");
    }

    #[test]
    fn fields_join_with_commas() {
        let mut s = String::new();
        write_u64_fields(&mut s, &[("a", 1), ("b", 2)]);
        assert_eq!(s, "\"a\":1,\"b\":2");
    }

    #[test]
    fn values_parse_and_round_trip() {
        let text = r#"{"s":"x\n\"y\"","n":-12.5e3,"big":18446744073709551615,"a":[1,null,true,false],"o":{"inner":{}}}"#;
        let v = JsonValue::parse(text).unwrap();
        assert_eq!(v.get("s").and_then(JsonValue::as_str), Some("x\n\"y\""));
        assert_eq!(v.get("n").and_then(JsonValue::as_f64), Some(-12500.0));
        assert_eq!(v.get("big").and_then(JsonValue::as_u64), Some(u64::MAX));
        assert_eq!(v.get("a").unwrap().as_array().unwrap().len(), 4);
        assert!(v.get("a").unwrap().as_array().unwrap()[1].is_null());
        // Byte-identical re-render (input is already canonical).
        assert_eq!(v.to_json(), text);
        // And a second parse agrees.
        assert_eq!(JsonValue::parse(&v.to_json()).unwrap(), v);
    }

    #[test]
    fn numbers_keep_raw_text_exactly() {
        // u64 beyond 2^53 and a shortest-round-trip f64 both survive.
        for raw in ["9007199254740993", "0.1", "-2.5e-7", "0"] {
            let v = JsonValue::parse(raw).unwrap();
            assert_eq!(v.to_json(), raw);
        }
        assert_eq!(
            JsonValue::num_f64(0.012345678901234567).as_f64().unwrap(),
            0.012345678901234567
        );
        assert_eq!(JsonValue::num_u64(u64::MAX).as_u64(), Some(u64::MAX));
    }

    #[test]
    fn whitespace_and_nesting_are_tolerated() {
        let v = JsonValue::parse(" { \"a\" : [ 1 , 2 ] , \"b\" : { } } ").unwrap();
        assert_eq!(v.to_json(), r#"{"a":[1,2],"b":{}}"#);
    }

    #[test]
    fn object_member_order_is_preserved() {
        let v = JsonValue::parse(r#"{"z":1,"a":2,"z":3}"#).unwrap();
        let members = v.as_object().unwrap();
        assert_eq!(members[0].0, "z");
        assert_eq!(members[1].0, "a");
        // get() returns the first member with the key.
        assert_eq!(v.get("z").and_then(JsonValue::as_u64), Some(1));
    }

    #[test]
    fn malformed_documents_report_offsets() {
        for (text, expect) in [
            ("", "unexpected end of input"),
            ("{", "object key"),
            ("{\"a\":}", "unexpected character"),
            ("[1,]", "unexpected character"),
            ("[1 2]", "expected ',' or ']'"),
            ("{\"a\":1 \"b\":2}", "expected ',' or '}'"),
            ("\"abc", "unterminated string"),
            ("12.", "expected digits after '.'"),
            ("1e", "expected digits in exponent"),
            ("truth", "expected 'true'"),
            ("{} {}", "trailing characters"),
            ("\"\\q\"", "bad escape"),
            ("\"\\u12\"", "truncated \\u escape"),
        ] {
            let err = JsonValue::parse(text).unwrap_err();
            assert!(
                err.message.contains(expect),
                "{text:?}: got {:?}, wanted {expect:?}",
                err.message
            );
            assert!(err.offset <= text.len());
        }
    }

    #[test]
    fn nesting_is_limited_without_exhausting_the_stack() {
        let nested = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        assert!(JsonValue::parse(&nested(MAX_DEPTH)).is_ok());
        let err = JsonValue::parse(&nested(MAX_DEPTH + 1)).unwrap_err();
        assert!(err.message.contains("nesting deeper than"), "{err}");
        assert_eq!(
            err.offset, MAX_DEPTH,
            "points at the first bracket too deep"
        );

        // A hostile line far past the limit fails fast, on a small stack.
        let hostile = "[{\"a\":".repeat(50_000);
        let err = std::thread::Builder::new()
            .stack_size(256 * 1024)
            .spawn(move || JsonValue::parse(&hostile).unwrap_err())
            .unwrap()
            .join()
            .unwrap();
        assert_eq!(err.offset, MAX_DEPTH / 2 * 6);
    }

    #[test]
    fn writer_output_is_parseable() {
        // Everything write_string emits must be readable back.
        let nasty = "quote\" backslash\\ newline\n tab\t ctrl\u{2} unicode\u{1F600}";
        let mut out = String::new();
        write_string(&mut out, nasty);
        let v = JsonValue::parse(&out).unwrap();
        assert_eq!(v.as_str(), Some(nasty));
    }
}
