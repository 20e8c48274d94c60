//! A minimal, dependency-free JSON document model.
//!
//! The plan artifact codec ([`crate::artifact`]) needs a concrete
//! document format, and the workspace has no serialization dependency.
//! This module is that format's foundation: a JSON value tree with a
//! writer and a recursive-descent parser, built for **losslessness**
//! rather than speed:
//!
//! * integers are kept as [`Json::Int`] (`i128`, covering the full `u64`
//!   range used by plan counters) and never pass through `f64`;
//! * finite floats are written with Rust's shortest round-trip formatting
//!   (`{:?}`), so `text -> f64 -> text` is the identity on what we emit;
//! * a number lexeme is classified as [`Json::Int`] iff it contains no
//!   fraction or exponent, which is exactly how the writer distinguishes
//!   the two, so `parse(write(v)) == v` for every value this module
//!   produces.
//!
//! Object member order is preserved (objects are association lists), which
//! keeps encoded artifacts byte-stable.
//!
//! The parser reads bytes from outside the process (stored and shipped
//! artifacts), so it bounds its recursion: arrays and
//! objects nested deeper than [`MAX_DEPTH`] are a typed
//! [`JsonErrorKind::TooDeep`] error rather than a stack overflow.
//!
//! gp-lint: deterministic — this module's outputs feed plan
//! fingerprints or the artifact codec; `cargo xtask lint` scans it for
//! nondeterminism hazards (DESIGN.md §"Determinism lint").

use std::fmt;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number with no fraction or exponent part.
    Int(i128),
    /// A number with a fraction or exponent part; always finite.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; member order is preserved.
    Obj(Vec<(String, Json)>),
}

/// Deepest nesting of arrays and objects [`Json::parse`] accepts. The
/// documents this workspace writes stay far below it (an artifact nests
/// four levels); anything deeper is hostile input.
pub const MAX_DEPTH: usize = 512;

/// A parse failure, with the byte offset where it was detected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset into the input.
    pub offset: usize,
    /// Which kind of failure.
    pub kind: JsonErrorKind,
    /// What went wrong.
    pub message: String,
}

/// The kinds of [`JsonError`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JsonErrorKind {
    /// The input is not one well-formed JSON document.
    Syntax,
    /// Arrays and objects nest deeper than [`MAX_DEPTH`].
    TooDeep,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

impl Json {
    /// Parses one JSON document (trailing whitespace allowed, nothing else).
    ///
    /// # Errors
    ///
    /// Returns a [`JsonError`] on malformed input or trailing garbage,
    /// and one of kind [`JsonErrorKind::TooDeep`] when arrays and objects
    /// nest deeper than [`MAX_DEPTH`].
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let value = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after document"));
        }
        Ok(value)
    }

    /// Member lookup on an object; `None` for other variants or a missing
    /// key.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a `u64` (from [`Json::Int`] only).
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            Json::Int(i) => u64::try_from(i).ok(),
            _ => None,
        }
    }

    /// The value as an `f64`: a [`Json::Float`], or an [`Json::Int`] that
    /// converts exactly.
    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            Json::Float(f) => Some(f),
            Json::Int(i) => {
                let f = i as f64;
                (f as i128 == i).then_some(f)
            }
            _ => None,
        }
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Writes the value as compact JSON.
    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(i) => {
                use fmt::Write as _;
                let _ = write!(out, "{i}");
            }
            Json::Float(f) => {
                use fmt::Write as _;
                debug_assert!(f.is_finite(), "writer only emits finite floats");
                // {:?} is Rust's shortest round-trip form and always carries
                // a '.' or an exponent, so the parser classifies it back as
                // Float.
                let _ = write!(out, "{f:?}");
            }
            Json::Str(s) => write_escaped(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(members) => {
                out.push('{');
                for (i, (k, v)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(k, out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut out = String::new();
        self.write(&mut out);
        f.write_str(&out)
    }
}

fn write_escaped(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                use fmt::Write as _;
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects open at `pos`.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: impl Into<String>) -> JsonError {
        JsonError {
            offset: self.pos,
            kind: JsonErrorKind::Syntax,
            message: message.into(),
        }
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected `{}`", b as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(format!("expected `{word}`")))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.nested(Self::array),
            Some(b'{') => self.nested(Self::object),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(other) => Err(self.err(format!("unexpected byte 0x{other:02x}"))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    /// Parses an array or object one level deeper, refusing to go past
    /// [`MAX_DEPTH`] before recursing.
    fn nested(
        &mut self,
        parse: fn(&mut Self) -> Result<Json, JsonError>,
    ) -> Result<Json, JsonError> {
        if self.depth == MAX_DEPTH {
            return Err(JsonError {
                offset: self.pos,
                kind: JsonErrorKind::TooDeep,
                message: format!("arrays and objects nest deeper than {MAX_DEPTH} levels"),
            });
        }
        self.depth += 1;
        let value = parse(self);
        self.depth -= 1;
        value
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected `,` or `]`")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            members.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(members));
                }
                _ => return Err(self.err("expected `,` or `}`")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            // Fast path: run of plain UTF-8 bytes.
            while let Some(&b) = self.bytes.get(self.pos) {
                if b == b'"' || b == b'\\' || b < 0x20 {
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
                    let esc = self.peek().ok_or_else(|| self.err("unterminated escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{0008}'),
                        b'f' => out.push('\u{000c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hi = self.hex4()?;
                            let c = if (0xd800..0xdc00).contains(&hi) {
                                // Surrogate pair.
                                self.expect(b'\\')?;
                                self.expect(b'u')?;
                                let lo = self.hex4()?;
                                if !(0xdc00..0xe000).contains(&lo) {
                                    return Err(self.err("invalid low surrogate"));
                                }
                                let cp =
                                    0x10000 + (((hi - 0xd800) as u32) << 10) + (lo - 0xdc00) as u32;
                                char::from_u32(cp)
                            } else {
                                char::from_u32(hi as u32)
                            };
                            out.push(c.ok_or_else(|| self.err("invalid \\u escape"))?);
                        }
                        other => {
                            return Err(self.err(format!("invalid escape `\\{}`", other as char)))
                        }
                    }
                }
                Some(_) => return Err(self.err("control character in string")),
                None => return Err(self.err("unterminated string")),
            }
        }
    }

    fn hex4(&mut self) -> Result<u16, JsonError> {
        let end = self.pos + 4;
        let slice = self
            .bytes
            .get(self.pos..end)
            .ok_or_else(|| self.err("truncated \\u escape"))?;
        let text = std::str::from_utf8(slice).map_err(|_| self.err("non-ASCII \\u escape"))?;
        let v = u16::from_str_radix(text, 16).map_err(|_| self.err("invalid \\u escape"))?;
        self.pos = end;
        Ok(v)
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut fractional = false;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    fractional = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text =
            std::str::from_utf8(&self.bytes[start..self.pos]).expect("number lexemes are ASCII");
        if fractional {
            let f: f64 = text
                .parse()
                .map_err(|_| self.err(format!("invalid number `{text}`")))?;
            if !f.is_finite() {
                return Err(self.err(format!("number `{text}` overflows f64")));
            }
            Ok(Json::Float(f))
        } else {
            let i: i128 = text
                .parse()
                .map_err(|_| self.err(format!("invalid number `{text}`")))?;
            Ok(Json::Int(i))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(v: &Json) {
        let text = v.to_string();
        assert_eq!(&Json::parse(&text).unwrap(), v, "wire form: {text}");
    }

    #[test]
    fn scalars_round_trip() {
        for v in [
            Json::Null,
            Json::Bool(true),
            Json::Bool(false),
            Json::Int(0),
            Json::Int(-42),
            Json::Int(u64::MAX as i128),
            Json::Float(0.5),
            Json::Float(1.0),
            Json::Float(-3.25e-9),
            Json::Float(f64::MAX),
            Json::Float(f64::MIN_POSITIVE),
            Json::Str("hello \"world\"\n\t\\ \u{1f600} \u{0007}".to_string()),
        ] {
            round_trip(&v);
        }
    }

    #[test]
    fn integral_floats_stay_floats() {
        let text = Json::Float(4.0).to_string();
        assert_eq!(text, "4.0");
        assert_eq!(Json::parse(&text).unwrap(), Json::Float(4.0));
        assert_eq!(Json::parse("4").unwrap(), Json::Int(4));
    }

    #[test]
    fn float_round_trip_is_exact() {
        // Shortest-form printing is lossless for awkward values.
        for bits in [
            0x3fb999999999999au64,
            0x7fefffffffffffff,
            0x0000000000000001,
        ] {
            let f = f64::from_bits(bits);
            let parsed = Json::parse(&Json::Float(f).to_string()).unwrap();
            assert_eq!(parsed, Json::Float(f));
        }
    }

    #[test]
    fn nested_documents_round_trip() {
        let v = Json::Obj(vec![
            ("a".into(), Json::Arr(vec![Json::Int(1), Json::Null])),
            ("b".into(), Json::Obj(vec![("x".into(), Json::Float(2.5))])),
            ("empty".into(), Json::Arr(vec![])),
            ("none".into(), Json::Obj(vec![])),
        ]);
        round_trip(&v);
    }

    #[test]
    fn parses_whitespace_and_escapes() {
        let v = Json::parse(" { \"k\" : [ 1 , \"\\u0041\\ud83d\\ude00\" ] } ").unwrap();
        assert_eq!(
            v.get("k").unwrap().as_arr().unwrap()[1].as_str(),
            Some("A\u{1f600}")
        );
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\":}",
            "nul",
            "\"unterminated",
            "1 2",
            "{\"a\" 1}",
            "\"\\q\"",
            "1e999",
        ] {
            let err = Json::parse(bad).expect_err(bad);
            assert_eq!(err.kind, JsonErrorKind::Syntax, "{bad:?}: {err}");
        }
    }

    #[test]
    fn nesting_bombs_are_a_typed_error_not_a_stack_overflow() {
        // (document, bytes per nesting level)
        for (bomb, level) in [
            ("[".repeat(100_000), 1),
            ("{\"a\":".repeat(100_000), 5),
            (
                format!("{}{}", "[".repeat(MAX_DEPTH + 1), "]".repeat(MAX_DEPTH + 1)),
                1,
            ),
        ] {
            let err = Json::parse(&bomb).unwrap_err();
            assert_eq!(err.kind, JsonErrorKind::TooDeep, "{err}");
            // Detected at the first container past the limit.
            assert_eq!(err.offset, MAX_DEPTH * level);
        }
        // The limit itself is accepted, arrays and objects alike.
        let deepest = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(Json::parse(&deepest).is_ok());
        let deepest = format!("{}1{}", "{\"a\":".repeat(MAX_DEPTH), "}".repeat(MAX_DEPTH));
        assert!(Json::parse(&deepest).is_ok());
        // Depth is nesting, not the number of containers: siblings reset it.
        let wide = format!("[{}]", vec!["[[]]"; 10_000].join(","));
        assert!(Json::parse(&wide).is_ok());
    }

    #[test]
    fn golden_artifacts_parse_well_inside_the_depth_limit() {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/goldens");
        let mut files: Vec<_> = std::fs::read_dir(&dir)
            .expect("tests/goldens exists")
            .map(|e| e.expect("readable entry").path())
            .filter(|p| p.extension().is_some_and(|x| x == "json"))
            .collect();
        files.sort();
        assert!(!files.is_empty());
        for path in files {
            let text = std::fs::read_to_string(&path).unwrap();
            let doc = Json::parse(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
            assert!(depth(&doc) <= MAX_DEPTH / 8, "{}", path.display());
        }
    }

    /// Nesting depth of a parsed document (a scalar is 0).
    fn depth(doc: &Json) -> usize {
        match doc {
            Json::Arr(items) => 1 + items.iter().map(depth).max().unwrap_or(0),
            Json::Obj(members) => 1 + members.iter().map(|(_, v)| depth(v)).max().unwrap_or(0),
            _ => 0,
        }
    }

    #[test]
    fn object_lookup_and_accessors() {
        let v = Json::parse("{\"n\":3,\"f\":1.5,\"s\":\"x\"}").unwrap();
        assert_eq!(v.get("n").unwrap().as_u64(), Some(3));
        assert_eq!(v.get("n").unwrap().as_f64(), Some(3.0));
        assert_eq!(v.get("f").unwrap().as_f64(), Some(1.5));
        assert_eq!(v.get("s").unwrap().as_str(), Some("x"));
        assert_eq!(v.get("missing"), None);
        assert_eq!(v.get("f").unwrap().as_u64(), None);
    }
}
