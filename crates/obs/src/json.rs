//! Minimal hand-rolled JSON emission and parsing.
//!
//! The observability layer writes JSON but must not pull in a serde
//! stack, so the tiny subset needed (escaped strings, numbers, flat
//! objects) lives here. Floats use Rust's shortest-roundtrip `Display`,
//! which is deterministic across platforms. The parser side handles
//! exactly the flat scalar objects this crate emits — one JSON object
//! per line, string keys, scalar values — which is what
//! `campaign-history.jsonl` round-trips through.

use std::collections::BTreeMap;

/// Appends `s` to `out` as a quoted JSON string with full escaping.
pub fn push_escaped(out: &mut String, s: &str) {
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

/// Formats a float so the output is valid JSON (`NaN`/`inf` have no
/// JSON spelling; they become `null`).
pub fn push_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        out.push_str(&format!("{v}"));
    } else {
        out.push_str("null");
    }
}

/// Writer for one flat JSON object (string keys, scalar values) in
/// the two layouts this crate emits: a JSONL record on one line, or a
/// document with one key per line. Keys appear in call order.
pub struct FlatJson {
    out: String,
    document: bool,
}

impl FlatJson {
    /// A one-line object, `{"k":v,"k2":v2}` — no trailing newline.
    pub fn line() -> FlatJson {
        FlatJson {
            out: String::from("{"),
            document: false,
        }
    }

    /// A document: `  "key": value` per line, then `}` and a newline.
    pub fn document() -> FlatJson {
        FlatJson {
            out: String::from("{"),
            document: true,
        }
    }

    /// Adds `key` with an already-rendered JSON `value`.
    pub fn raw(&mut self, key: &str, value: &str) -> &mut FlatJson {
        if self.out.len() > 1 {
            self.out.push(',');
        }
        if self.document {
            self.out.push_str("\n  ");
        }
        push_escaped(&mut self.out, key);
        self.out.push_str(if self.document { ": " } else { ":" });
        self.out.push_str(value);
        self
    }

    /// Adds an integer.
    pub fn num(&mut self, key: &str, value: u64) -> &mut FlatJson {
        self.raw(key, &value.to_string())
    }

    /// Adds a float (`null` when not finite, see [`push_f64`]).
    pub fn float(&mut self, key: &str, value: f64) -> &mut FlatJson {
        let mut v = String::new();
        push_f64(&mut v, value);
        self.raw(key, &v)
    }

    /// Adds a string, escaped.
    pub fn string(&mut self, key: &str, value: &str) -> &mut FlatJson {
        let mut v = String::new();
        push_escaped(&mut v, value);
        self.raw(key, &v)
    }

    /// Adds one `<prefix>.<name>` integer per map entry, in map order.
    pub fn counts(&mut self, prefix: &str, counts: &BTreeMap<String, u64>) -> &mut FlatJson {
        for (name, n) in counts {
            self.num(&format!("{prefix}.{name}"), *n);
        }
        self
    }

    /// Closes the object and returns the text.
    pub fn finish(mut self) -> String {
        self.out.push_str(if self.document { "\n}\n" } else { "}" });
        self.out
    }
}

/// A scalar JSON value as parsed from a flat object. Numbers keep
/// their raw text so `u64` counters survive beyond the `f64` mantissa.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonScalar {
    /// A number, stored as its raw JSON text.
    Num(String),
    /// An unescaped string.
    Str(String),
    /// A boolean.
    Bool(bool),
    /// `null`.
    Null,
}

impl JsonScalar {
    /// The value as an unsigned integer, if it is a whole number.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonScalar::Num(raw) => raw.parse().ok(),
            _ => None,
        }
    }

    /// The value as a float (`null` maps back to NaN, the emission
    /// direction of [`push_f64`]).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonScalar::Num(raw) => raw.parse().ok(),
            JsonScalar::Null => Some(f64::NAN),
            _ => None,
        }
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonScalar::Str(s) => Some(s),
            _ => None,
        }
    }
}

/// Parses one flat JSON object (`{"key": scalar, ...}`) into its
/// key/value pairs in document order. Nested objects and arrays are
/// rejected — the obs layer never emits them in line-oriented files.
pub fn parse_flat_object(line: &str) -> Result<Vec<(String, JsonScalar)>, String> {
    let mut p = Parser {
        bytes: line.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    p.expect(b'{')?;
    let mut out = Vec::new();
    p.skip_ws();
    if p.peek() == Some(b'}') {
        p.pos += 1;
    } else {
        loop {
            p.skip_ws();
            let key = p.parse_string()?;
            p.skip_ws();
            p.expect(b':')?;
            p.skip_ws();
            let value = p.parse_scalar()?;
            out.push((key, value));
            p.skip_ws();
            match p.peek() {
                Some(b',') => p.pos += 1,
                Some(b'}') => {
                    p.pos += 1;
                    break;
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", p.pos)),
            }
        }
    }
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing data at byte {}", p.pos));
    }
    Ok(out)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", b as char, self.pos))
        }
    }

    fn parse_string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek().ok_or("unterminated string")? {
                b'"' => {
                    self.pos += 1;
                    return Ok(out);
                }
                b'\\' => {
                    self.pos += 1;
                    match self.peek().ok_or("unterminated escape")? {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or("truncated \\u escape")?;
                            let hex = std::str::from_utf8(hex)
                                .map_err(|_| "non-ascii \\u escape".to_string())?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| format!("bad \\u escape {hex:?}"))?;
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| format!("invalid codepoint \\u{hex}"))?,
                            );
                            self.pos += 4;
                        }
                        other => return Err(format!("unknown escape '\\{}'", other as char)),
                    }
                    self.pos += 1;
                }
                _ => {
                    // Consume one UTF-8 character.
                    let rest = &self.bytes[self.pos..];
                    let s = std::str::from_utf8(rest).map_err(|_| "invalid utf-8".to_string())?;
                    let c = s.chars().next().unwrap();
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn parse_scalar(&mut self) -> Result<JsonScalar, String> {
        match self.peek().ok_or("missing value")? {
            b'"' => Ok(JsonScalar::Str(self.parse_string()?)),
            b't' => self.parse_lit("true", JsonScalar::Bool(true)),
            b'f' => self.parse_lit("false", JsonScalar::Bool(false)),
            b'n' => self.parse_lit("null", JsonScalar::Null),
            b'-' | b'0'..=b'9' => {
                let start = self.pos;
                while matches!(
                    self.peek(),
                    Some(b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')
                ) {
                    self.pos += 1;
                }
                let raw = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
                // Validate now so `as_u64`/`as_f64` failures can only
                // mean a type mismatch, not a malformed number.
                raw.parse::<f64>()
                    .map_err(|_| format!("bad number {raw:?}"))?;
                Ok(JsonScalar::Num(raw.to_string()))
            }
            b'{' | b'[' => Err("nested values are not supported".into()),
            other => Err(format!("unexpected byte '{}'", other as char)),
        }
    }

    fn parse_lit(&mut self, lit: &str, value: JsonScalar) -> Result<JsonScalar, String> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(value)
        } else {
            Err(format!("expected literal {lit:?} at byte {}", self.pos))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escapes_hostile_strings() {
        let mut out = String::new();
        push_escaped(&mut out, "a\"b\\c\nd\re\tf\u{1}");
        assert_eq!(out, "\"a\\\"b\\\\c\\nd\\re\\tf\\u0001\"");
    }

    #[test]
    fn floats_are_json_safe() {
        let mut out = String::new();
        push_f64(&mut out, 1.5);
        out.push(' ');
        push_f64(&mut out, f64::NAN);
        out.push(' ');
        push_f64(&mut out, f64::INFINITY);
        assert_eq!(out, "1.5 null null");
    }

    #[test]
    fn flat_writer_layouts_parse_back() {
        let mut counts = BTreeMap::new();
        counts.insert("x y".to_string(), 2u64);
        let fill = |w: &mut FlatJson| {
            w.num("a", 1).float("b", 0.5).string("c", "q\"").counts("n", &counts);
        };
        let mut line = FlatJson::line();
        fill(&mut line);
        let line = line.finish();
        assert_eq!(line, r#"{"a":1,"b":0.5,"c":"q\"","n.x y":2}"#);
        let mut doc = FlatJson::document();
        fill(&mut doc);
        let doc = doc.finish();
        assert_eq!(doc, "{\n  \"a\": 1,\n  \"b\": 0.5,\n  \"c\": \"q\\\"\",\n  \"n.x y\": 2\n}\n");
        assert_eq!(parse_flat_object(&line).unwrap(), parse_flat_object(&doc).unwrap());
        assert_eq!(FlatJson::line().finish(), "{}");
    }

    #[test]
    fn parses_flat_objects() {
        let pairs =
            parse_flat_object(r#"{"a":1,"b":"x\ty","c":true,"d":null,"e":-2.5,"f":18446744073709551615}"#)
                .unwrap();
        assert_eq!(pairs[0], ("a".into(), JsonScalar::Num("1".into())));
        assert_eq!(pairs[1], ("b".into(), JsonScalar::Str("x\ty".into())));
        assert_eq!(pairs[2], ("c".into(), JsonScalar::Bool(true)));
        assert_eq!(pairs[3], ("d".into(), JsonScalar::Null));
        assert_eq!(pairs[4].1.as_f64(), Some(-2.5));
        // u64 beyond the f64 mantissa survives untouched.
        assert_eq!(pairs[5].1.as_u64(), Some(u64::MAX));
    }

    #[test]
    fn parses_empty_and_spaced_objects() {
        assert!(parse_flat_object("{}").unwrap().is_empty());
        let pairs = parse_flat_object("{ \"k\" : 7 }").unwrap();
        assert_eq!(pairs, vec![("k".into(), JsonScalar::Num("7".into()))]);
    }

    #[test]
    fn round_trips_emitted_escapes() {
        let mut out = String::new();
        out.push('{');
        push_escaped(&mut out, "k");
        out.push(':');
        push_escaped(&mut out, "a\"b\\c\nd\re\tf\u{1}");
        out.push('}');
        let pairs = parse_flat_object(&out).unwrap();
        assert_eq!(pairs[0].1.as_str(), Some("a\"b\\c\nd\re\tf\u{1}"));
    }

    #[test]
    fn rejects_malformed_lines() {
        assert!(parse_flat_object("{\"a\":1").is_err());
        assert!(parse_flat_object("{\"a\":[1]}").is_err());
        assert!(parse_flat_object("{\"a\":{}}").is_err());
        assert!(parse_flat_object("{\"a\":1} extra").is_err());
        assert!(parse_flat_object("{\"a\":1e}").is_err());
    }
}
