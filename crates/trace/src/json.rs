//! Minimal JSON document model, writer, and parser.
//!
//! The workspace's `serde` is a no-op marker-trait shim, so every
//! emitter in the repo used to hand-format strings. This module gives
//! them one shared value model instead: build a [`Json`] tree, render
//! it with [`Json::pretty`] (or [`Json::compact`]), and round-trip it
//! back with [`Json::parse`] for validation.
//!
//! Numbers: integers are kept exact as `i64`; floats render via Rust's
//! `f64` Display (shortest round-trip form) with non-finite values
//! mapped to `null`, and [`Json::fixed`] pre-rounds to a decimal count
//! for schema-stable metric fields.

use std::fmt::Write as _;

/// A JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An integer (rendered without a decimal point).
    Int(i64),
    /// A float.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; insertion order is preserved.
    Obj(Vec<(String, Json)>),
}

impl From<bool> for Json {
    fn from(v: bool) -> Self {
        Json::Bool(v)
    }
}
impl From<i64> for Json {
    fn from(v: i64) -> Self {
        Json::Int(v)
    }
}
impl From<u32> for Json {
    fn from(v: u32) -> Self {
        Json::Int(v as i64)
    }
}
impl From<usize> for Json {
    fn from(v: usize) -> Self {
        Json::Int(v as i64)
    }
}
impl From<f64> for Json {
    fn from(v: f64) -> Self {
        Json::Num(v)
    }
}
impl From<&str> for Json {
    fn from(v: &str) -> Self {
        Json::Str(v.to_string())
    }
}
impl From<String> for Json {
    fn from(v: String) -> Self {
        Json::Str(v)
    }
}
impl From<Vec<Json>> for Json {
    fn from(v: Vec<Json>) -> Self {
        Json::Arr(v)
    }
}

impl Json {
    /// An integer from a `u64` (saturating at `i64::MAX`; simulator
    /// counters stay far below that).
    pub fn uint(v: u64) -> Json {
        Json::Int(i64::try_from(v).unwrap_or(i64::MAX))
    }

    /// A float pre-rounded to `decimals` places, so emitters that used
    /// to format with `{:.3}` keep byte-stable output.
    pub fn fixed(v: f64, decimals: u32) -> Json {
        if !v.is_finite() {
            return Json::Null;
        }
        let scale = 10f64.powi(decimals as i32);
        Json::Num((v * scale).round() / scale)
    }

    /// Start building an object.
    pub fn obj() -> ObjBuilder {
        ObjBuilder { fields: Vec::new() }
    }

    /// Object field lookup (None for non-objects or missing keys).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Array elements ( `&[]` for non-arrays).
    pub fn items(&self) -> &[Json] {
        match self {
            Json::Arr(v) => v,
            _ => &[],
        }
    }

    /// Integer view: `Int` exactly, or an integral `Num`.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Json::Int(v) => Some(*v),
            Json::Num(v) if v.fract() == 0.0 && v.is_finite() => Some(*v as i64),
            _ => None,
        }
    }

    /// Float view of any number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Int(v) => Some(*v as f64),
            Json::Num(v) => Some(*v),
            _ => None,
        }
    }

    /// String view.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Render with two-space indentation and a trailing newline.
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(0));
        out.push('\n');
        out
    }

    /// Render on one line with no whitespace.
    pub fn compact(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None);
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(true) => out.push_str("true"),
            Json::Bool(false) => out.push_str("false"),
            Json::Int(v) => {
                let _ = write!(out, "{v}");
            }
            Json::Num(v) => write_f64(out, *v),
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    match indent {
                        Some(level) => {
                            break_line(out, level + 1);
                            item.write(out, Some(level + 1));
                        }
                        None => item.write(out, None),
                    }
                }
                if let Some(level) = indent {
                    break_line(out, level);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                if fields.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (key, value)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    match indent {
                        Some(level) => {
                            break_line(out, level + 1);
                            write_escaped(out, key);
                            out.push_str(": ");
                            value.write(out, Some(level + 1));
                        }
                        None => {
                            write_escaped(out, key);
                            out.push(':');
                            value.write(out, None);
                        }
                    }
                }
                if let Some(level) = indent {
                    break_line(out, level);
                }
                out.push('}');
            }
        }
    }

    /// Parse a JSON document. Returns the value and rejects trailing
    /// garbage and nesting deeper than 128 levels; integral tokens
    /// without `.`/`e` become [`Json::Int`].
    pub fn parse(text: &str) -> Result<Json, String> {
        let bytes = text.as_bytes();
        let mut pos = 0;
        let value = parse_value(bytes, &mut pos, 0)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing data at byte {pos}"));
        }
        Ok(value)
    }
}

/// Incremental object builder preserving field order.
pub struct ObjBuilder {
    fields: Vec<(String, Json)>,
}

impl ObjBuilder {
    /// Append a field.
    pub fn field(mut self, key: &str, value: impl Into<Json>) -> Self {
        self.fields.push((key.to_string(), value.into()));
        self
    }

    /// Finish the object.
    pub fn build(self) -> Json {
        Json::Obj(self.fields)
    }
}

fn break_line(out: &mut String, level: usize) {
    out.push('\n');
    for _ in 0..level {
        out.push_str("  ");
    }
}

fn write_f64(out: &mut String, v: f64) {
    if !v.is_finite() {
        out.push_str("null");
        return;
    }
    if v == v.trunc() && v.abs() < 1e15 {
        // keep integral floats unambiguous ("2.0", not "2")
        let _ = write!(out, "{v:.1}");
    } else {
        // Rust Display for f64 is shortest-round-trip and never uses
        // exponent notation for the magnitudes the simulator emits
        let _ = write!(out, "{v}");
    }
}

fn write_escaped(out: &mut String, s: &str) {
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
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, lit: &str) -> Result<(), String> {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(())
    } else {
        Err(format!("expected `{lit}` at byte {pos}", pos = *pos))
    }
}

/// Deepest array/object nesting [`Json::parse`] accepts (`serde_json`'s
/// default). The parser recurses once per level, and parsed text can
/// come from any client of a control socket: without a bound, a run of
/// `[` overflows the thread's stack and aborts the process.
const MAX_DEPTH: usize = 128;

/// Parse one value enclosed by `depth` arrays/objects.
fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    skip_ws(bytes, pos);
    if matches!(bytes.get(*pos), Some(b'[' | b'{')) && depth == MAX_DEPTH {
        return Err(format!("nesting deeper than {MAX_DEPTH} at byte {pos}", pos = *pos));
    }
    match bytes.get(*pos) {
        None => Err("unexpected end of input".to_string()),
        Some(b'n') => expect(bytes, pos, "null").map(|_| Json::Null),
        Some(b't') => expect(bytes, pos, "true").map(|_| Json::Bool(true)),
        Some(b'f') => expect(bytes, pos, "false").map(|_| Json::Bool(false)),
        Some(b'"') => parse_string(bytes, pos).map(Json::Str),
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(parse_value(bytes, pos, depth + 1)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return Err(format!("expected `,` or `]` at byte {pos}", pos = *pos)),
                }
            }
        }
        Some(b'{') => {
            *pos += 1;
            let mut fields = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(fields));
            }
            loop {
                skip_ws(bytes, pos);
                let key = parse_string(bytes, pos)?;
                skip_ws(bytes, pos);
                expect(bytes, pos, ":")?;
                let value = parse_value(bytes, pos, depth + 1)?;
                fields.push((key, value));
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(fields));
                    }
                    _ => return Err(format!("expected `,` or `}}` at byte {pos}", pos = *pos)),
                }
            }
        }
        Some(_) => parse_number(bytes, pos),
    }
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    if bytes.get(*pos) != Some(&b'"') {
        return Err(format!("expected string at byte {pos}", pos = *pos));
    }
    *pos += 1;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err("unterminated string".to_string()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{0008}'),
                    Some(b'f') => out.push('\u{000c}'),
                    Some(b'u') => {
                        let hex = bytes
                            .get(*pos + 1..*pos + 5)
                            .ok_or("truncated \\u escape")?;
                        let code = u32::from_str_radix(
                            std::str::from_utf8(hex).map_err(|e| e.to_string())?,
                            16,
                        )
                        .map_err(|e| e.to_string())?;
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        *pos += 4;
                    }
                    _ => return Err(format!("bad escape at byte {pos}", pos = *pos)),
                }
                *pos += 1;
            }
            Some(_) => {
                // Copy the whole run up to the next quote or escape in
                // one slice (one UTF-8 validation per run, not per char
                // — per-char `from_utf8` of the remaining input made
                // large-document parsing quadratic). Multi-byte UTF-8
                // sequences never contain ASCII `"` or `\`, so the byte
                // scan cannot split a scalar.
                let start = *pos;
                while let Some(&b) = bytes.get(*pos) {
                    if b == b'"' || b == b'\\' {
                        break;
                    }
                    *pos += 1;
                }
                let s = std::str::from_utf8(&bytes[start..*pos]).map_err(|e| e.to_string())?;
                out.push_str(s);
            }
        }
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    let mut is_float = false;
    while let Some(&b) = bytes.get(*pos) {
        match b {
            b'0'..=b'9' => *pos += 1,
            b'.' | b'e' | b'E' | b'+' | b'-' => {
                is_float = true;
                *pos += 1;
            }
            _ => break,
        }
    }
    let text = std::str::from_utf8(&bytes[start..*pos]).map_err(|e| e.to_string())?;
    if text.is_empty() || text == "-" {
        return Err(format!("expected number at byte {start}"));
    }
    if is_float {
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|e| format!("bad number `{text}`: {e}"))
    } else {
        text.parse::<i64>()
            .map(Json::Int)
            .map_err(|e| format!("bad integer `{text}`: {e}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_and_renders() {
        let doc = Json::obj()
            .field("name", "dense")
            .field("steps", Json::uint(3))
            .field("speedup", Json::fixed(1.23456, 3))
            .field("flags", Json::Arr(vec![Json::Bool(true), Json::Null]))
            .build();
        assert_eq!(
            doc.compact(),
            r#"{"name":"dense","steps":3,"speedup":1.235,"flags":[true,null]}"#
        );
        let pretty = doc.pretty();
        assert!(pretty.contains("\"speedup\": 1.235"));
        assert!(pretty.ends_with('\n'));
    }

    #[test]
    fn integral_floats_keep_decimal_point() {
        assert_eq!(Json::Num(2.0).compact(), "2.0");
        assert_eq!(Json::fixed(1.9999, 2).compact(), "2.0");
        assert_eq!(Json::Num(f64::NAN).compact(), "null");
        assert_eq!(Json::Int(2).compact(), "2");
    }

    #[test]
    fn parse_round_trips() {
        let doc = Json::obj()
            .field("a", Json::Int(-7))
            .field("b", 0.125)
            .field("s", "quote\" \\ tab\t")
            .field("arr", Json::Arr(vec![Json::Int(1), Json::Str("x".into())]))
            .field("nested", Json::obj().field("empty", Json::Arr(vec![])).build())
            .build();
        let parsed = Json::parse(&doc.pretty()).unwrap();
        assert_eq!(parsed, doc);
        let reparsed = Json::parse(&parsed.compact()).unwrap();
        assert_eq!(reparsed, doc);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("12 34").is_err());
        assert!(Json::parse("\"open").is_err());
    }

    #[test]
    fn nesting_is_bounded() {
        let nested = |n: usize| "[".repeat(n) + &"]".repeat(n);
        assert!(Json::parse(&nested(MAX_DEPTH)).is_ok());
        assert_eq!(
            Json::parse(&nested(MAX_DEPTH + 1)),
            Err("nesting deeper than 128 at byte 128".to_string())
        );
        let objects = r#"{"a":"#.repeat(MAX_DEPTH + 1) + "1" + &"}".repeat(MAX_DEPTH + 1);
        assert!(Json::parse(&objects).unwrap_err().starts_with("nesting deeper than 128"));
        // An unterminated flood fails typed instead of overflowing the stack.
        assert!(Json::parse(&"[".repeat(200_000)).is_err());
    }

    #[test]
    fn accessors() {
        let doc = Json::parse(r#"{"n": 3, "f": 2.5, "s": "hi", "a": [1]}"#).unwrap();
        assert_eq!(doc.get("n").and_then(Json::as_i64), Some(3));
        assert_eq!(doc.get("f").and_then(Json::as_f64), Some(2.5));
        assert_eq!(doc.get("s").and_then(Json::as_str), Some("hi"));
        assert_eq!(doc.get("a").map(|a| a.items().len()), Some(1));
        assert_eq!(doc.get("missing"), None);
    }
}
