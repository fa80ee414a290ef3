//! The crate's one JSON codec: a parser, a typed field accessor and an
//! ordered-object writer.
//!
//! Every JSON line the crate reads or writes goes through this module:
//! journal rows and headers (`crate::store`), trace NDJSON and the Chrome
//! export (`crate::trace`), wire requests, replies and campaign specs
//! (`crate::wire`, `crate::server`), server events, and telemetry
//! snapshots. It is the only code that knows the format:
//!
//! * **Field order** is call order: [`ObjectWriter`] appends each field as
//!   it is given, so equal values encode to equal bytes.
//! * **Floats** use Rust's shortest round-trip `Display`, which parses back
//!   bit-identical. Non-finite values come out as the bare tokens `inf`,
//!   `-inf` and `NaN` (not strict JSON); the parser reads them back.
//! * **Numbers** are kept as raw text after parsing, so 64-bit integers
//!   (mission seeds) never round through `f64`.
//!
//! The parser takes untrusted input (wire clients, hand-edited journals):
//! it nests at most [`MAX_DEPTH`] arrays and objects, and scans strings in
//! linear time.

use std::collections::HashMap;
use std::fmt::Write as _;

/// Deepest nesting of arrays and objects the parser accepts. The deepest
/// document the crate writes has four levels (a submit's spec `configs`);
/// the cap keeps the recursive parser's stack use small and fixed however
/// many brackets a client sends.
const MAX_DEPTH: usize = 32;

// ---------------------------------------------------------------------------
// Values and typed field access
// ---------------------------------------------------------------------------

/// A parsed JSON value. Numbers keep their raw text.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Json {
    Null,
    Bool(bool),
    Num(String),
    Str(String),
    Arr(Vec<Json>),
    Obj(HashMap<String, Json>),
}

impl Json {
    /// The required field `key`, converted to `T`.
    pub(crate) fn req<'a, T: FromJson<'a>>(&'a self, key: &str) -> Result<T, String> {
        self.opt(key)?.ok_or_else(|| format!("missing field {key:?}"))
    }

    /// The optional field `key` (absent or `null` is `None`), converted to
    /// `T`; a present field of the wrong type is an error.
    pub(crate) fn opt<'a, T: FromJson<'a>>(&'a self, key: &str) -> Result<Option<T>, String> {
        match self {
            Json::Obj(map) => match map.get(key) {
                None | Some(Json::Null) => Ok(None),
                Some(v) => T::from_json(v)
                    .map(Some)
                    .ok_or_else(|| format!("field {key:?} has the wrong type")),
            },
            _ => Ok(None),
        }
    }

    fn num<T: std::str::FromStr>(&self) -> Option<T> {
        match self {
            Json::Num(raw) => raw.parse().ok(),
            _ => None,
        }
    }
}

/// A type a JSON value converts to (`None` when the value has another
/// shape).
pub(crate) trait FromJson<'a>: Sized {
    fn from_json(value: &'a Json) -> Option<Self>;
}

macro_rules! from_json {
    ($($t:ty => |$v:ident| $convert:expr),* $(,)?) => {$(
        impl<'a> FromJson<'a> for $t {
            fn from_json($v: &'a Json) -> Option<Self> {
                $convert
            }
        }
    )*};
}

from_json! {
    u64 => |v| v.num(),
    usize => |v| v.num(),
    i8 => |v| v.num(),
    f64 => |v| v.num(),
    bool => |v| if let Json::Bool(b) = v { Some(*b) } else { None },
    &'a str => |v| if let Json::Str(s) = v { Some(s.as_str()) } else { None },
    String => |v| <&str>::from_json(v).map(str::to_string),
    &'a [Json] => |v| if let Json::Arr(items) = v { Some(items.as_slice()) } else { None },
    &'a Json => |v| Some(v),
}

// ---------------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------------

/// Parses one JSON value spanning all of `text` (surrounding whitespace
/// allowed).
///
/// # Errors
///
/// Describes the first malformed byte, an over-deep nesting, or trailing
/// bytes.
pub(crate) fn parse(text: &str) -> Result<Json, String> {
    let mut p = Parser { text, bytes: text.as_bytes(), pos: 0, depth: 0 };
    let v = p.parse_value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing bytes after value at byte {}", p.pos));
    }
    Ok(v)
}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected {:?} at byte {}", b as char, self.pos))
        }
    }

    fn eat_literal(&mut self, lit: &str) -> bool {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            true
        } else {
            false
        }
    }

    fn parse_value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => {
                let mut map = HashMap::new();
                self.parse_items(b'}', |p| {
                    p.skip_ws();
                    let key = p.parse_string()?;
                    p.skip_ws();
                    p.expect(b':')?;
                    map.insert(key, p.parse_value()?);
                    Ok(())
                })?;
                Ok(Json::Obj(map))
            }
            Some(b'[') => {
                let mut items = Vec::new();
                self.parse_items(b']', |p| {
                    items.push(p.parse_value()?);
                    Ok(())
                })?;
                Ok(Json::Arr(items))
            }
            Some(b'"') => Ok(Json::Str(self.parse_string()?)),
            Some(b't') if self.eat_literal("true") => Ok(Json::Bool(true)),
            Some(b'f') if self.eat_literal("false") => Ok(Json::Bool(false)),
            Some(b'n') if self.eat_literal("null") => Ok(Json::Null),
            Some(b'N') if self.eat_literal("NaN") => Ok(Json::Num("NaN".into())),
            Some(b'i') if self.eat_literal("inf") => Ok(Json::Num("inf".into())),
            Some(_) => self.parse_number(),
            None => Err("unexpected end of input".into()),
        }
    }

    /// Parses the comma-separated items of the array or object whose
    /// opening bracket is at `pos`, up to `close`, one nesting level deeper
    /// (at most [`MAX_DEPTH`]).
    fn parse_items(
        &mut self,
        close: u8,
        mut item: impl FnMut(&mut Self) -> Result<(), String>,
    ) -> Result<(), String> {
        if self.depth == MAX_DEPTH {
            return Err(format!("nesting deeper than {MAX_DEPTH} levels at byte {}", self.pos));
        }
        self.depth += 1;
        self.pos += 1;
        self.skip_ws();
        if self.peek() == Some(close) {
            self.pos += 1;
            self.depth -= 1;
            return Ok(());
        }
        loop {
            item(self)?;
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b) if b == close => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(());
                }
                _ => {
                    return Err(format!("expected ',' or '{}' at byte {}", close as char, self.pos))
                }
            }
        }
    }

    fn parse_string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // Copy the run up to the next quote or backslash in one slice:
            // both are ASCII, so the cut is always a char boundary.
            let run =
                self.text[self.pos..].find(['"', '\\']).ok_or("unterminated string")? + self.pos;
            out.push_str(&self.text[self.pos..run]);
            self.pos = run + 1;
            if self.bytes[run] == b'"' {
                return Ok(out);
            }
            let esc = self.peek().ok_or("unterminated escape")?;
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
                    let hex =
                        self.text.get(self.pos..self.pos + 4).ok_or("truncated \\u escape")?;
                    let code = u32::from_str_radix(hex, 16).map_err(|e| e.to_string())?;
                    self.pos += 4;
                    out.push(
                        char::from_u32(code).ok_or_else(|| format!("invalid \\u{hex} escape"))?,
                    );
                }
                other => return Err(format!("bad escape \\{}", other as char)),
            }
        }
    }

    fn parse_number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
            if self.eat_literal("inf") {
                return Ok(Json::Num("-inf".into()));
            }
        }
        while matches!(self.peek(), Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')) {
            self.pos += 1;
        }
        if self.pos == start {
            return Err(format!("expected a value at byte {start}"));
        }
        let raw = &self.text[start..self.pos];
        if raw.parse::<f64>().is_err() {
            return Err(format!("malformed number {raw:?}"));
        }
        Ok(Json::Num(raw.to_string()))
    }
}

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

/// A value the writer can append.
pub(crate) trait ToJson {
    /// Appends the value's JSON text to `out`.
    fn write_json(&self, out: &mut String);
}

impl<T: ToJson + ?Sized> ToJson for &T {
    fn write_json(&self, out: &mut String) {
        (**self).write_json(out);
    }
}

impl ToJson for str {
    fn write_json(&self, out: &mut String) {
        out.push('"');
        let mut start = 0;
        for (i, b) in self.bytes().enumerate() {
            if b >= 0x20 && b != b'"' && b != b'\\' {
                continue;
            }
            // Escaped bytes are ASCII, so every cut is a char boundary.
            out.push_str(&self[start..i]);
            let _ = match b {
                b'"' | b'\\' => write!(out, "\\{}", b as char),
                b'\n' => write!(out, "\\n"),
                b'\r' => write!(out, "\\r"),
                b'\t' => write!(out, "\\t"),
                _ => write!(out, "\\u{b:04x}"),
            };
            start = i + 1;
        }
        out.push_str(&self[start..]);
        out.push('"');
    }
}

impl ToJson for String {
    fn write_json(&self, out: &mut String) {
        self.as_str().write_json(out);
    }
}

/// Booleans, integers and floats all write their `Display` text; for
/// floats that is the shortest round-trip form (`inf`/`-inf`/`NaN` when
/// non-finite).
macro_rules! to_json_display {
    ($($t:ty),*) => {$(
        impl ToJson for $t {
            fn write_json(&self, out: &mut String) {
                let _ = write!(out, "{self}");
            }
        }
    )*};
}

to_json_display!(bool, i8, i32, u64, usize, u128, f64);

/// Appends the fields of one JSON object in call order, nested objects and
/// arrays of objects included.
pub(crate) struct ObjectWriter<'a> {
    out: &'a mut String,
    empty: bool,
}

impl ObjectWriter<'_> {
    fn separate(&mut self) {
        if !self.empty {
            self.out.push(',');
        }
        self.empty = false;
    }

    fn key(&mut self, key: &str) -> &mut Self {
        self.separate();
        key.write_json(self.out);
        self.out.push(':');
        self
    }

    /// Writes `open`, whatever `body` writes as a fresh sequence, `close`.
    fn nest(&mut self, [open, close]: [char; 2], body: impl FnOnce(&mut Self)) -> &mut Self {
        self.out.push(open);
        self.empty = true;
        body(self);
        self.out.push(close);
        self.empty = false;
        self
    }

    /// Appends `"key":value`.
    pub(crate) fn field(&mut self, key: &str, value: impl ToJson) -> &mut Self {
        value.write_json(self.key(key).out);
        self
    }

    /// Appends `"key":value` when `value` is set; omits the field otherwise.
    pub(crate) fn opt(&mut self, key: &str, value: Option<impl ToJson>) -> &mut Self {
        match value {
            Some(value) => self.field(key, value),
            None => self,
        }
    }

    /// Appends `"key":null`.
    pub(crate) fn null(&mut self, key: &str) -> &mut Self {
        self.key(key).out.push_str("null");
        self
    }

    /// Appends `"key":{...}` with the fields `body` writes.
    pub(crate) fn object(&mut self, key: &str, body: impl FnOnce(&mut Self)) -> &mut Self {
        self.key(key).nest(['{', '}'], body)
    }

    /// Appends `"key":[...]` with the elements `body` writes through
    /// [`ObjectWriter::element`].
    pub(crate) fn array(&mut self, key: &str, body: impl FnOnce(&mut Self)) -> &mut Self {
        self.key(key).nest(['[', ']'], body)
    }

    /// Appends one object element, with the fields `body` writes, to the
    /// array being written.
    pub(crate) fn element(&mut self, body: impl FnOnce(&mut Self)) -> &mut Self {
        self.separate();
        self.nest(['{', '}'], body)
    }
}

/// Encodes one JSON object with the fields `body` writes, in call order.
pub(crate) fn object(body: impl FnOnce(&mut ObjectWriter<'_>)) -> String {
    let mut out = String::new();
    ObjectWriter { out: &mut out, empty: true }.nest(['{', '}'], body);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parser_handles_escapes_and_numbers() {
        let j = parse(
            "{\"s\":\"a\\\"b\\\\c\\n\\u0041\",\"n\":-1.5e-3,\"u\":18446744073709551615,\
             \"t\":true,\"x\":null,\"inf\":inf,\"ninf\":-inf,\"nan\":NaN}",
        )
        .unwrap();
        assert_eq!(j.req::<&str>("s"), Ok("a\"b\\c\nA"));
        assert_eq!(j.req::<f64>("n"), Ok(-1.5e-3));
        assert_eq!(j.req::<u64>("u"), Ok(u64::MAX));
        assert_eq!(j.req::<bool>("t"), Ok(true));
        assert_eq!(j.opt::<bool>("x"), Ok(None), "null reads as absent");
        assert_eq!(j.req::<f64>("inf"), Ok(f64::INFINITY));
        assert_eq!(j.req::<f64>("ninf"), Ok(f64::NEG_INFINITY));
        assert!(j.req::<f64>("nan").unwrap().is_nan());
        assert!(parse("{\"a\":}").is_err());
        assert!(parse("{\"a\":1} trailing").is_err());
    }

    #[test]
    fn typed_access_names_the_field() {
        let j = parse("{\"n\":\"seven\",\"m\":7}").unwrap();
        assert_eq!(j.req::<u64>("m"), Ok(7));
        assert_eq!(j.req::<u64>("n"), Err("field \"n\" has the wrong type".to_string()));
        assert_eq!(j.req::<u64>("k"), Err("missing field \"k\"".to_string()));
        assert_eq!(j.opt::<u64>("k"), Ok(None));
        assert!(j.opt::<bool>("m").is_err(), "a present field must have the right type");
    }

    #[test]
    fn nesting_is_capped() {
        let nest = |depth: usize| "[".repeat(depth) + &"]".repeat(depth);
        assert!(parse(&nest(MAX_DEPTH)).is_ok());
        let err = parse(&nest(MAX_DEPTH + 1)).unwrap_err();
        assert!(err.contains("nesting deeper than"), "got: {err}");
        let objects = "{\"a\":".repeat(MAX_DEPTH + 1);
        assert!(parse(&objects).unwrap_err().contains("nesting deeper than"));
    }

    #[test]
    fn strings_round_trip_through_writer_and_parser() {
        for s in ["", "plain", "q\"b\\s/", "\u{0}\u{7}\u{1f}\u{7f}", "λ→∞ \n\r\t", "😀"] {
            let text = object(|o| {
                o.field("s", s);
            });
            assert_eq!(parse(&text).unwrap().req::<&str>("s"), Ok(s), "{text}");
        }
        assert_eq!(
            object(|o| {
                o.field("c", "\u{1}");
            }),
            "{\"c\":\"\\u0001\"}"
        );
        assert!(parse("\"\\ud800\"").is_err(), "lone surrogates are rejected");
        assert!(parse("\"\\u00").is_err());
        assert!(parse("\"abc").is_err());
    }

    #[test]
    fn writer_keeps_call_order_and_float_text() {
        let text = object(|o| {
            o.field("z", 1u64)
                .field("a", 0.1 + 0.2)
                .field("inf", f64::NEG_INFINITY)
                .opt("none", None::<u64>)
                .opt("some", Some(-0.0))
                .null("nil")
                .object("o", |o| {
                    o.field("t", true);
                })
                .array("arr", |a| {
                    a.element(|o| {
                        o.field("i", 1);
                    })
                    .element(|_| {});
                });
        });
        assert_eq!(
            text,
            "{\"z\":1,\"a\":0.30000000000000004,\"inf\":-inf,\"some\":-0,\"nil\":null,\
             \"o\":{\"t\":true},\"arr\":[{\"i\":1},{}]}"
        );
        assert_eq!(parse(&text).unwrap().req::<f64>("a"), Ok(0.1 + 0.2));
    }
}
