//! The workspace's one JSON writer, and a minimal zero-dependency reader.
//!
//! `s3-obs` deliberately takes no external crates, but incident dumps,
//! EXPLAIN reports, traces and experiment results are all JSON. [`JsonWriter`] is the only code that renders
//! one: string escaping and the one number rule (integers as integers,
//! `f64` by shortest round-trip, non-finite → `null`) live here and
//! nowhere else. [`JsonValue::parse`] is a small recursive-descent parser
//! for reading those documents back — strict enough for RFC 8259
//! documents we produce ourselves, not a general validator (it accepts
//! e.g. lone surrogates in `\u` escapes).

use std::collections::BTreeMap;
use std::fmt::{self, Write as _};

/// Streaming, insertion-ordered JSON builder.
///
/// Containers are opened with [`obj`](Self::obj) / [`arr`](Self::arr) and
/// closed with [`end`](Self::end); inside an object every value follows a
/// [`key`](Self::key) ([`field`](Self::field) writes a key and a scalar).
/// Commas, escaping and number formatting are the writer's job. A
/// document is rendered on one line ([`JsonWriter::line`]: `--explain`,
/// traces) or indented ([`JsonWriter::indented`]:
/// files people open) — the document chooses, never a user.
#[derive(Debug, Default)]
pub struct JsonWriter {
    out: String,
    indented: bool,
    /// Per open container: its closing bracket, and whether it holds a
    /// value yet.
    open: Vec<(char, bool)>,
    after_key: bool,
}

impl JsonWriter {
    /// A writer that renders the whole document on one line.
    pub fn line() -> JsonWriter {
        JsonWriter::default()
    }

    /// A writer that renders one member per line, two spaces a level.
    pub fn indented() -> JsonWriter {
        JsonWriter {
            indented: true,
            ..JsonWriter::default()
        }
    }

    fn newline(&mut self) {
        if self.indented {
            self.out.push('\n');
            for _ in 0..self.open.len() {
                self.out.push_str("  ");
            }
        }
    }

    /// The comma and line break owed before the next key or value.
    fn begin_item(&mut self) {
        if std::mem::take(&mut self.after_key) {
            return;
        }
        if let Some((_, has_items)) = self.open.last_mut() {
            if std::mem::replace(has_items, true) {
                self.out.push(',');
            }
            self.newline();
        }
    }

    fn open(&mut self, open: char, close: char) -> &mut Self {
        self.begin_item();
        self.out.push(open);
        self.open.push((close, false));
        self
    }

    /// Opens an object.
    pub fn obj(&mut self) -> &mut Self {
        self.open('{', '}')
    }

    /// Opens an array.
    pub fn arr(&mut self) -> &mut Self {
        self.open('[', ']')
    }

    /// Closes the innermost open container.
    pub fn end(&mut self) -> &mut Self {
        debug_assert!(!self.open.is_empty(), "end() without an open container");
        if let Some((close, has_items)) = self.open.pop() {
            if has_items {
                self.newline();
            }
            self.out.push(close);
        }
        self
    }

    /// Writes an object member's name; its value comes next.
    pub fn key(&mut self, name: &str) -> &mut Self {
        self.begin_item();
        name.render(&mut self.out);
        self.out.push_str(if self.indented { ": " } else { ":" });
        self.after_key = true;
        self
    }

    /// Writes a scalar.
    pub fn val(&mut self, v: impl JsonScalar) -> &mut Self {
        self.begin_item();
        v.render(&mut self.out);
        self
    }

    /// `key(name)` then `val(v)`.
    pub fn field(&mut self, name: &str, v: impl JsonScalar) -> &mut Self {
        self.key(name).val(v)
    }

    /// Writes each `(name, value)` pair as a member of the open object.
    pub fn fields<'a, K, V>(&mut self, members: impl IntoIterator<Item = &'a (K, V)>) -> &mut Self
    where
        K: AsRef<str> + 'a,
        V: JsonScalar + 'a,
    {
        for (name, v) in members {
            self.field(name.as_ref(), v);
        }
        self
    }

    /// Writes each item as an element of the open array.
    pub fn vals<V: JsonScalar>(&mut self, items: impl IntoIterator<Item = V>) -> &mut Self {
        for v in items {
            self.val(v);
        }
        self
    }

    /// Splices an already-rendered JSON document in as the next value.
    pub fn raw(&mut self, doc: &str) -> &mut Self {
        self.begin_item();
        self.out.push_str(doc);
        self
    }

    /// The finished document, closing whatever is still open; an indented
    /// one ends with a newline.
    pub fn finish(mut self) -> String {
        while !self.open.is_empty() {
            self.end();
        }
        if self.indented {
            self.out.push('\n');
        }
        self.out
    }
}

/// A scalar [`JsonWriter::val`] can render: integers, `f64`, `bool`,
/// strings, and `Option`s of them (`None` is `null`).
pub trait JsonScalar {
    /// Appends the value's JSON text to `out`.
    fn render(&self, out: &mut String);
}

macro_rules! display_scalar {
    ($($t:ty),*) => {$(
        impl JsonScalar for $t {
            fn render(&self, out: &mut String) {
                let _ = write!(out, "{self}");
            }
        }
    )*};
}
display_scalar!(u32, u64, usize, i64, bool);

impl JsonScalar for f64 {
    /// Shortest digits that parse back to the same `f64` (an integral
    /// value prints without a fraction), in exponent form outside
    /// `[1e-5, 1e16)`. JSON has no NaN/Infinity: `null` is the honest
    /// encoding.
    fn render(&self, out: &mut String) {
        let v = *self;
        let _ = if !v.is_finite() {
            write!(out, "null")
        } else if v != 0.0 && !(1e-5..1e16).contains(&v.abs()) {
            write!(out, "{v:e}")
        } else {
            write!(out, "{v}")
        };
    }
}

impl JsonScalar for str {
    fn render(&self, out: &mut String) {
        out.push('"');
        for c in self.chars() {
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
    }
}

impl JsonScalar for String {
    fn render(&self, out: &mut String) {
        self.as_str().render(out);
    }
}

impl<T: JsonScalar + ?Sized> JsonScalar for &T {
    fn render(&self, out: &mut String) {
        (**self).render(out);
    }
}

impl<T: JsonScalar> JsonScalar for Option<T> {
    fn render(&self, out: &mut String) {
        match self {
            Some(v) => v.render(out),
            None => out.push_str("null"),
        }
    }
}

/// A parsed JSON document node.
#[derive(Clone, Debug, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (kept as `f64`).
    Num(f64),
    /// A string, unescaped.
    Str(String),
    /// An array.
    Arr(Vec<JsonValue>),
    /// An object. Keys are sorted (`BTreeMap`); duplicate keys keep the
    /// last occurrence.
    Obj(BTreeMap<String, JsonValue>),
}

/// Parse failure: byte offset and message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset in the input where parsing failed.
    pub at: usize,
    /// What went wrong.
    pub msg: &'static str,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json parse error at byte {}: {}", self.at, self.msg)
    }
}

impl std::error::Error for JsonError {}

impl JsonValue {
    /// Parses a complete JSON document (trailing whitespace allowed,
    /// trailing garbage rejected).
    pub fn parse(input: &str) -> Result<JsonValue, JsonError> {
        let bytes = input.as_bytes();
        let mut p = Parser { bytes, pos: 0 };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != bytes.len() {
            return Err(p.err("trailing characters after document"));
        }
        Ok(v)
    }

    /// Object member lookup (`None` for non-objects / missing keys).
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Obj(m) => m.get(key),
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

    /// The numeric payload, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Arr(a) => Some(a),
            _ => None,
        }
    }

    /// The members, if this is an object.
    pub fn as_object(&self) -> Option<&BTreeMap<String, JsonValue>> {
        match self {
            JsonValue::Obj(m) => Some(m),
            _ => None,
        }
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: &'static str) -> JsonError {
        JsonError { at: self.pos, msg }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8, msg: &'static str) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(msg))
        }
    }

    fn literal(&mut self, lit: &'static [u8], msg: &'static str) -> Result<(), JsonError> {
        if self.bytes[self.pos..].starts_with(lit) {
            self.pos += lit.len();
            Ok(())
        } else {
            Err(self.err(msg))
        }
    }

    fn value(&mut self) -> Result<JsonValue, JsonError> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(JsonValue::Str(self.string()?)),
            Some(b't') => {
                self.literal(b"true", "expected 'true'")?;
                Ok(JsonValue::Bool(true))
            }
            Some(b'f') => {
                self.literal(b"false", "expected 'false'")?;
                Ok(JsonValue::Bool(false))
            }
            Some(b'n') => {
                self.literal(b"null", "expected 'null'")?;
                Ok(JsonValue::Null)
            }
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn object(&mut self) -> Result<JsonValue, JsonError> {
        self.expect(b'{', "expected '{'")?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Obj(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':', "expected ':' after object key")?;
            self.skip_ws();
            let val = self.value()?;
            map.insert(key, val);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Obj(map));
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    fn array(&mut self) -> Result<JsonValue, JsonError> {
        self.expect(b'[', "expected '['")?;
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
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"', "expected '\"'")?;
        let mut out = String::new();
        loop {
            let b = self.peek().ok_or_else(|| self.err("unterminated string"))?;
            self.pos += 1;
            match b {
                b'"' => return Ok(out),
                b'\\' => {
                    let esc = self.peek().ok_or_else(|| self.err("unterminated escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{0008}'),
                        b'f' => out.push('\u{000C}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let cp = self.hex4()?;
                            // Surrogate pair: try to combine with a
                            // following \uXXXX low surrogate.
                            if (0xD800..0xDC00).contains(&cp)
                                && self.bytes[self.pos..].starts_with(b"\\u")
                            {
                                let save = self.pos;
                                self.pos += 2;
                                let lo = self.hex4()?;
                                if (0xDC00..0xE000).contains(&lo) {
                                    let c = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
                                    out.push(char::from_u32(c).unwrap_or('\u{FFFD}'));
                                    continue;
                                }
                                self.pos = save;
                            }
                            out.push(char::from_u32(cp).unwrap_or('\u{FFFD}'));
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                }
                // Raw control characters are invalid in JSON strings.
                0x00..=0x1F => return Err(self.err("control character in string")),
                _ => {
                    // Re-borrow the full UTF-8 character starting here.
                    let start = self.pos - 1;
                    let rest = &self.bytes[start..];
                    let ch_len = utf8_len(b).ok_or_else(|| self.err("invalid utf-8"))?;
                    if rest.len() < ch_len {
                        return Err(self.err("truncated utf-8"));
                    }
                    let s = std::str::from_utf8(&rest[..ch_len])
                        .map_err(|_| self.err("invalid utf-8"))?;
                    out.push_str(s);
                    self.pos = start + ch_len;
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let mut v = 0u32;
        for _ in 0..4 {
            let b = self
                .peek()
                .ok_or_else(|| self.err("truncated \\u escape"))?;
            self.pos += 1;
            let d = match b {
                b'0'..=b'9' => (b - b'0') as u32,
                b'a'..=b'f' => (b - b'a') as u32 + 10,
                b'A'..=b'F' => (b - b'A') as u32 + 10,
                _ => return Err(self.err("invalid hex digit in \\u escape")),
            };
            v = (v << 4) | d;
        }
        Ok(v)
    }

    fn number(&mut self) -> Result<JsonValue, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
        ) {
            self.pos += 1;
        }
        let s = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid number"))?;
        s.parse::<f64>()
            .map(JsonValue::Num)
            .map_err(|_| self.err("invalid number"))
    }
}

/// Length of the UTF-8 sequence starting with `first`, or `None` for a
/// continuation/invalid lead byte.
fn utf8_len(first: u8) -> Option<usize> {
    match first {
        0x00..=0x7F => Some(1),
        0xC0..=0xDF => Some(2),
        0xE0..=0xEF => Some(3),
        0xF0..=0xF7 => Some(4),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(JsonValue::parse("null").unwrap(), JsonValue::Null);
        assert_eq!(JsonValue::parse(" true ").unwrap(), JsonValue::Bool(true));
        assert_eq!(
            JsonValue::parse("-12.5e2").unwrap(),
            JsonValue::Num(-1250.0)
        );
        assert_eq!(
            JsonValue::parse("\"a\\nb\\u00e9\"").unwrap(),
            JsonValue::Str("a\nbé".to_owned())
        );
    }

    #[test]
    fn parses_nested_structures() {
        let v = JsonValue::parse(r#"{"a": [1, {"b": "x"}, null], "c": false}"#).unwrap();
        assert_eq!(v.get("c"), Some(&JsonValue::Bool(false)));
        let arr = v.get("a").and_then(|a| a.as_array()).unwrap();
        assert_eq!(arr.len(), 3);
        assert_eq!(arr[1].get("b").and_then(|b| b.as_str()), Some("x"));
    }

    #[test]
    fn surrogate_pairs() {
        assert_eq!(
            JsonValue::parse("\"\\ud83d\\ude00\"").unwrap(),
            JsonValue::Str("😀".to_owned())
        );
    }

    #[test]
    fn rejects_garbage() {
        assert!(JsonValue::parse("").is_err());
        assert!(JsonValue::parse("{").is_err());
        assert!(JsonValue::parse("[1,]").is_err());
        assert!(JsonValue::parse("{} x").is_err());
        assert!(JsonValue::parse("\"\u{0001}\"").is_err());
    }

    #[test]
    fn round_trips_escapes() {
        // An escaped string must parse back to the input.
        let hostile = "a\"b\\c\nd\te\u{0007}é😀";
        let mut w = JsonWriter::line();
        w.val(hostile);
        assert_eq!(
            JsonValue::parse(&w.finish()).unwrap(),
            JsonValue::Str(hostile.to_owned())
        );
    }

    fn rendered(v: impl JsonScalar) -> String {
        let mut w = JsonWriter::line();
        w.val(v);
        w.finish()
    }

    #[test]
    fn one_number_rule() {
        // Integers as integers, exactly, whatever their width.
        assert_eq!(rendered(0u64), "0");
        assert_eq!(rendered(3usize), "3");
        assert_eq!(rendered(-3i64), "-3");
        assert_eq!(rendered(u64::MAX), "18446744073709551615");
        // f64 by shortest round-trip: an integral value has no fraction,
        // huge and tiny ones use an exponent, the sign of zero survives.
        for (v, text) in [
            (0.0, "0"),
            (3.0, "3"),
            (-0.0, "-0"),
            (0.1, "0.1"),
            (1.5, "1.5"),
            (1e300, "1e300"),
            (1e16, "1e16"),
            (9_007_199_254_740_993.0, "9007199254740992"),
            (2.5e-7, "2.5e-7"),
            (f64::MIN_POSITIVE, "2.2250738585072014e-308"),
        ] {
            assert_eq!(rendered(v), text);
            let back = JsonValue::parse(text).unwrap().as_f64().unwrap();
            assert_eq!(back.to_bits(), v.to_bits(), "{text} round-trips");
        }
        // Non-finite values have no JSON number: null, never a bare NaN.
        for v in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert_eq!(rendered(v), "null");
        }
        assert_eq!(rendered(None::<u64>), "null");
        assert_eq!(rendered(Some(7u64)), "7");
    }

    #[test]
    fn two_renderings_of_one_stream() {
        let build = |mut w: JsonWriter| {
            w.obj().field("a", 1u64).key("b").arr();
            w.val("x").obj().end().val(true).end();
            w.key("c").raw("{\"k\":null}").key("d").arr().end().end();
            w.finish()
        };
        let line = build(JsonWriter::line());
        assert_eq!(line, r#"{"a":1,"b":["x",{},true],"c":{"k":null},"d":[]}"#);
        let indented = build(JsonWriter::indented());
        assert_eq!(
            indented,
            "{\n  \"a\": 1,\n  \"b\": [\n    \"x\",\n    {},\n    true\n  ],\n  \"c\": {\"k\":null},\n  \"d\": []\n}\n"
        );
        assert_eq!(
            JsonValue::parse(&line).unwrap(),
            JsonValue::parse(&indented).unwrap()
        );
    }
}
