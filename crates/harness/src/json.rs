//! Minimal JSON tree, renderer and parser.
//!
//! The sweep writes the golden `BENCH_sweep.json`, which the test suite
//! parses back to name the cells that moved; `analyze` writes its two
//! documents and checks both first. The workspace takes no
//! serialization dependency, so this module hand-rolls the small JSON
//! subset those files need: finite
//! numbers, strings, booleans, null, arrays and (insertion-ordered)
//! objects. The renderer and parser are exact inverses on that subset —
//! `parse(render(v)) == v` — which the round-trip tests pin.

use std::fmt::Write as _;

/// A JSON value. Object keys keep insertion order (a `Vec`, not a map),
/// so rendered documents are stable and diffs stay readable.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    /// All numbers are `f64`, like JavaScript. Integers survive exactly
    /// up to 2^53 — far beyond any counter the sweep emits. Non-finite
    /// values are unrepresentable in JSON; the renderer panics on them.
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

/// An object from `(key, value)` pairs, in the order given.
pub fn obj(fields: Vec<(&str, Json)>) -> Json {
    Json::Obj(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
}

/// A number from anything that widens to `f64` without loss.
pub fn num(x: impl Into<f64>) -> Json {
    Json::Num(x.into())
}

impl Json {
    /// Object field lookup (first match; `None` on non-objects).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(x) => Some(*x),
            _ => None,
        }
    }

    /// The number as a `u64`, if it is one exactly.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(x) if *x >= 0.0 && x.fract() == 0.0 && *x <= 2f64.powi(53) => Some(*x as u64),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(a) => Some(a),
            _ => None,
        }
    }

    /// Render with 2-space indentation and a trailing newline — the
    /// committed-artifact format (line-oriented, diff-friendly).
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, depth: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(x) => {
                assert!(x.is_finite(), "JSON cannot represent {x}");
                // Rust's shortest round-trip Display; integral values
                // print without a fractional part.
                write!(out, "{x}").unwrap();
            }
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => {
                write_items(out, depth, ['[', ']'], items.iter().map(|v| (None, v)))
            }
            Json::Obj(fields) => {
                let fields = fields.iter().map(|(k, v)| (Some(k.as_str()), v));
                write_items(out, depth, ['{', '}'], fields)
            }
        }
    }

    /// Parse a complete document (trailing whitespace allowed, nothing
    /// else). Errors carry a byte offset.
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing garbage at byte {}", p.pos));
        }
        Ok(v)
    }
}

/// An array's or object's items between `open` and `close`, one per line
/// at `depth + 1`, each after its key if it has one; an empty one on a
/// single line.
fn write_items<'a>(
    out: &mut String,
    depth: usize,
    [open, close]: [char; 2],
    items: impl Iterator<Item = (Option<&'a str>, &'a Json)>,
) {
    out.push(open);
    let mut empty = true;
    for (key, v) in items {
        out.push_str(if empty { "\n" } else { ",\n" });
        empty = false;
        indent(out, depth + 1);
        if let Some(key) = key {
            write_escaped(out, key);
            out.push_str(": ");
        }
        v.write(out, depth + 1);
    }
    if !empty {
        out.push('\n');
        indent(out, depth);
    }
    out.push(close);
}

fn indent(out: &mut String, depth: usize) {
    for _ in 0..depth {
        out.push_str("  ");
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
            c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32).unwrap(),
            c => out.push(c),
        }
    }
    out.push('"');
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
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

    fn eat(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", b as char, self.pos))
        }
    }

    fn literal(&mut self, word: &str, v: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.items(*b"[]", Self::value).map(Json::Arr),
            Some(b'{') => self.items(*b"{}", Self::field).map(Json::Obj),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(format!("unexpected input at byte {}", self.pos)),
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        while matches!(
            self.peek(),
            Some(b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')
        ) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| format!("bad number '{text}' at byte {start}"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut s = String::new();
        loop {
            match self.peek().ok_or("unterminated string")? {
                b'"' => {
                    self.pos += 1;
                    return Ok(s);
                }
                b'\\' => {
                    self.pos += 1;
                    let esc = self.peek().ok_or("unterminated escape")?;
                    self.pos += 1;
                    match esc {
                        b'"' => s.push('"'),
                        b'\\' => s.push('\\'),
                        b'/' => s.push('/'),
                        b'n' => s.push('\n'),
                        b'r' => s.push('\r'),
                        b't' => s.push('\t'),
                        b'b' => s.push('\u{8}'),
                        b'f' => s.push('\u{c}'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .ok_or("truncated \\u escape")?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex).map_err(|_| "bad \\u escape")?,
                                16,
                            )
                            .map_err(|_| "bad \\u escape")?;
                            self.pos += 4;
                            // Surrogate pairs are not needed for the
                            // benchmark schema; reject rather than
                            // silently mangle.
                            s.push(char::from_u32(code).ok_or("surrogate \\u escape")?);
                        }
                        _ => return Err(format!("bad escape at byte {}", self.pos - 1)),
                    }
                }
                _ => {
                    // Consume the run up to the next quote or escape: both
                    // are ASCII, so the run is whole UTF-8 scalars of the
                    // &str input.
                    let rest = &self.bytes[self.pos..];
                    let run = rest.iter().position(|&b| matches!(b, b'"' | b'\\'));
                    let run = run.unwrap_or(rest.len());
                    s.push_str(std::str::from_utf8(&rest[..run]).unwrap());
                    self.pos += run;
                }
            }
        }
    }

    /// The items of an array or object between `open` and `close`, each
    /// read by `item`.
    fn items<T>(
        &mut self,
        [open, close]: [u8; 2],
        item: fn(&mut Self) -> Result<T, String>,
    ) -> Result<Vec<T>, String> {
        self.eat(open)?;
        let mut items = Vec::new();
        self.skip_ws();
        while self.peek() != Some(close) {
            if !items.is_empty() {
                self.eat(b',')?;
                self.skip_ws();
            }
            items.push(item(self)?);
            self.skip_ws();
        }
        self.pos += 1;
        Ok(items)
    }

    /// One `"key": value` field of an object.
    fn field(&mut self) -> Result<(String, Json), String> {
        let k = self.string()?;
        self.skip_ws();
        self.eat(b':')?;
        self.skip_ws();
        Ok((k, self.value()?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_nested() {
        let v = obj(vec![
            ("schema", Json::Str("bench_sweep/v1".into())),
            ("n", Json::Num(8.0)),
            ("scale", Json::Num(0.05)),
            ("ok", Json::Bool(true)),
            ("none", Json::Null),
            (
                "cells",
                Json::Arr(vec![
                    obj(vec![("t", Json::Num(161321.0))]),
                    Json::Arr(vec![]),
                    obj(vec![]),
                ]),
            ),
        ]);
        let text = v.render();
        assert_eq!(Json::parse(&text).unwrap(), v);
    }

    #[test]
    fn integers_render_without_fraction() {
        assert_eq!(Json::Num(1414.0).render(), "1414\n");
        assert_eq!(Json::parse("1414").unwrap().as_u64(), Some(1414));
    }

    #[test]
    fn floats_round_trip_exactly() {
        for x in [0.05, 0.1, 1.0 / 3.0, 1e-9, 6.02e23] {
            let text = Json::Num(x).render();
            assert_eq!(Json::parse(&text).unwrap(), Json::Num(x), "{text}");
        }
    }

    #[test]
    fn string_escapes_round_trip() {
        let s = "a\"b\\c\nd\te\u{1}ζ";
        let v = Json::Str(s.into());
        assert_eq!(Json::parse(&v.render()).unwrap(), v);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("1 2").is_err());
        assert!(Json::parse("\"\\q\"").is_err());
        assert!(Json::parse("nul").is_err());
        for bad in [
            "[1 2]",
            "[,1]",
            "[1",
            "{\"a\" 1}",
            "{\"a\": 1,}",
            "{1: 2}",
            "\"ab",
        ] {
            assert!(Json::parse(bad).is_err(), "{bad}");
        }
        assert_eq!(Json::parse("[ ]").unwrap(), Json::Arr(vec![]));
        assert_eq!(Json::parse(" { } ").unwrap(), Json::Obj(vec![]));
    }

    #[test]
    fn whitespace_tolerant() {
        let v = Json::parse(" { \"a\" : [ 1 , 2 ] , \"b\" : null } ").unwrap();
        assert_eq!(v.get("a").unwrap().as_arr().unwrap().len(), 2);
        assert_eq!(v.get("b"), Some(&Json::Null));
    }
}
