//! Minimal hand-rolled JSON — the workspace deliberately vendors no
//! serde, and `perfbench` needs both emission of its result line and
//! strict re-parsing of it.
//!
//! Objects preserve insertion order (a `Vec` of pairs, not a map) so the
//! emitted file is stable and diffs cleanly.

use std::fmt::Write as _;

/// A JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number (stored as `f64`; emitted with Rust's shortest
    /// round-trip formatting). JSON has no Inf/NaN: non-finite values
    /// are emitted as `null` (the policy of RFC 8259 §6 implementations
    /// like `JSON.stringify`), and the parser rejects any numeric token
    /// that overflows to a non-finite `f64` (e.g. `1e999`), so a
    /// document written by this module always re-parses.
    Num(f64),
    /// String.
    Str(String),
    /// Array.
    Arr(Vec<Json>),
    /// Object — insertion-ordered key/value pairs.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Member lookup on an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a non-negative integer (must be whole and in range).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= 2f64.powi(53) => {
                Some(*n as u64)
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

    /// The value as an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(a) => Some(a),
            _ => None,
        }
    }

    /// The value as an object's pair list.
    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(o) => Some(o),
            _ => None,
        }
    }

    /// Pretty-print with two-space indentation and a trailing newline.
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, depth: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => {
                if n.is_finite() {
                    let _ = write!(out, "{n}");
                } else {
                    // JSON has no Inf/NaN. Policy (see the `Num` docs):
                    // emit `null`, matching `JSON.stringify`, so a NaN
                    // timing can never wedge the baseline file with an
                    // unparseable token — the reader sees an absent
                    // measurement and reports it, instead of the writer
                    // taking down the whole benchmark run.
                    out.push_str("null");
                }
            }
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
                    out.push('\n');
                    indent(out, depth + 1);
                    item.write(out, depth + 1);
                }
                out.push('\n');
                indent(out, depth);
                out.push(']');
            }
            Json::Obj(pairs) => {
                if pairs.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    indent(out, depth + 1);
                    write_escaped(out, k);
                    out.push_str(": ");
                    v.write(out, depth + 1);
                }
                out.push('\n');
                indent(out, depth);
                out.push('}');
            }
        }
    }

    /// Parse a complete JSON document (trailing whitespace allowed,
    /// trailing garbage rejected).
    pub fn parse(text: &str) -> Result<Json, String> {
        let bytes = text.as_bytes();
        let mut pos = 0;
        let value = parse_value(bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing garbage at byte {pos}"));
        }
        Ok(value)
    }
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
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn parse_value(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    skip_ws(b, pos);
    let Some(&c) = b.get(*pos) else {
        return Err("unexpected end of input".into());
    };
    match c {
        b'n' => parse_lit(b, pos, "null", Json::Null),
        b't' => parse_lit(b, pos, "true", Json::Bool(true)),
        b'f' => parse_lit(b, pos, "false", Json::Bool(false)),
        b'"' => Ok(Json::Str(parse_string(b, pos)?)),
        b'[' => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(parse_value(b, pos)?);
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(&b',') => *pos += 1,
                    Some(&b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    other => return Err(format!("expected ',' or ']' at byte {pos}, got {other:?}")),
                }
            }
        }
        b'{' => {
            *pos += 1;
            let mut pairs: Vec<(String, Json)> = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(pairs));
            }
            loop {
                skip_ws(b, pos);
                let key = parse_string(b, pos)?;
                if pairs.iter().any(|(k, _)| *k == key) {
                    return Err(format!("duplicate key {key:?}"));
                }
                skip_ws(b, pos);
                if b.get(*pos) != Some(&b':') {
                    return Err(format!("expected ':' at byte {pos}"));
                }
                *pos += 1;
                let value = parse_value(b, pos)?;
                pairs.push((key, value));
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(&b',') => *pos += 1,
                    Some(&b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(pairs));
                    }
                    other => return Err(format!("expected ',' or '}}' at byte {pos}, got {other:?}")),
                }
            }
        }
        b'-' | b'0'..=b'9' => {
            let start = *pos;
            *pos += 1;
            while *pos < b.len()
                && matches!(b[*pos], b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
            {
                *pos += 1;
            }
            let text = std::str::from_utf8(&b[start..*pos]).map_err(|e| e.to_string())?;
            let n: f64 = text
                .parse()
                .map_err(|e| format!("bad number {text:?}: {e}"))?;
            // A syntactically valid exponent can still overflow f64
            // (e.g. `1e999` parses as +inf): reject it so `Num` holds
            // finite values only, matching what the writer can emit.
            if !n.is_finite() {
                return Err(format!("number {text:?} overflows f64 to {n}"));
            }
            Ok(Json::Num(n))
        }
        other => Err(format!("unexpected byte {:?} at {pos}", other as char)),
    }
}

fn parse_lit(b: &[u8], pos: &mut usize, lit: &str, value: Json) -> Result<Json, String> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(format!("bad literal at byte {pos}, expected {lit}"))
    }
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, String> {
    if b.get(*pos) != Some(&b'"') {
        return Err(format!("expected string at byte {pos}"));
    }
    *pos += 1;
    let mut out = String::new();
    loop {
        let Some(&c) = b.get(*pos) else {
            return Err("unterminated string".into());
        };
        *pos += 1;
        match c {
            b'"' => return Ok(out),
            b'\\' => {
                let Some(&esc) = b.get(*pos) else {
                    return Err("unterminated escape".into());
                };
                *pos += 1;
                match esc {
                    b'"' => out.push('"'),
                    b'\\' => out.push('\\'),
                    b'/' => out.push('/'),
                    b'n' => out.push('\n'),
                    b'r' => out.push('\r'),
                    b't' => out.push('\t'),
                    b'b' => out.push('\u{8}'),
                    b'f' => out.push('\u{c}'),
                    b'u' => {
                        let hex = b
                            .get(*pos..*pos + 4)
                            .ok_or("truncated \\u escape")?;
                        let code = u32::from_str_radix(
                            std::str::from_utf8(hex).map_err(|e| e.to_string())?,
                            16,
                        )
                        .map_err(|e| e.to_string())?;
                        *pos += 4;
                        // Surrogate pairs are not needed for our files;
                        // map lone surrogates to the replacement char.
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                    }
                    other => return Err(format!("bad escape \\{}", other as char)),
                }
            }
            c if c < 0x80 => out.push(c as char),
            _ => {
                // Multi-byte UTF-8: find the full char in the source.
                let s = std::str::from_utf8(&b[*pos - 1..])
                    .map_err(|e| format!("invalid UTF-8 in string: {e}"))?;
                let ch = s.chars().next().unwrap();
                out.push(ch);
                *pos += ch.len_utf8() - 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_nested_document() {
        let doc = Json::Obj(vec![
            ("name".into(), Json::Str("bench \"6\"\n".into())),
            ("n".into(), Json::Num(42.0)),
            ("pi".into(), Json::Num(0.1 + 0.2)),
            ("neg".into(), Json::Num(-1.5e-9)),
            ("flag".into(), Json::Bool(true)),
            ("nothing".into(), Json::Null),
            (
                "cases".into(),
                Json::Arr(vec![
                    Json::Obj(vec![("v".into(), Json::Num(1.0))]),
                    Json::Arr(vec![]),
                    Json::Obj(vec![]),
                ]),
            ),
        ]);
        let text = doc.pretty();
        let back = Json::parse(&text).unwrap();
        assert_eq!(doc, back);
    }

    #[test]
    fn floats_roundtrip_bitwise() {
        for v in [0.1 + 0.2, 1.0 / 3.0, f64::MIN_POSITIVE, 1e308, -0.0] {
            let text = Json::Num(v).pretty();
            let back = Json::parse(&text).unwrap().as_f64().unwrap();
            assert_eq!(v.to_bits(), back.to_bits(), "{v}");
        }
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in [
            "", "{", "[1,", "{\"a\" 1}", "{\"a\":1,}", "nul", "01x", "\"abc",
            "{\"a\":1} trailing", "{\"a\":1,\"a\":2}",
        ] {
            assert!(Json::parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn unicode_and_escapes_parse() {
        let j = Json::parse("\"caf\\u00e9 θφ\\t\"").unwrap();
        assert_eq!(j.as_str().unwrap(), "café θφ\t");
    }

    #[test]
    fn non_finite_numbers_emit_null_and_roundtrip() {
        // Writer policy: Inf/NaN become `null` — the emitted document
        // must stay parseable, with the bad measurement read back as an
        // explicit absence rather than a corrupt token.
        let doc = Json::Obj(vec![
            ("ok".into(), Json::Num(1.5)),
            ("nan".into(), Json::Num(f64::NAN)),
            ("inf".into(), Json::Num(f64::INFINITY)),
            ("ninf".into(), Json::Num(f64::NEG_INFINITY)),
        ]);
        let text = doc.pretty();
        let back = Json::parse(&text).unwrap();
        assert_eq!(back.get("ok").unwrap().as_f64(), Some(1.5));
        for key in ["nan", "inf", "ninf"] {
            assert_eq!(back.get(key), Some(&Json::Null), "{key}");
            assert_eq!(back.get(key).unwrap().as_f64(), None, "{key}");
        }
    }

    #[test]
    fn parser_rejects_numbers_overflowing_to_infinity() {
        for bad in ["1e999", "-1e999", "[1.0, 2e9999]"] {
            let err = Json::parse(bad).expect_err(bad);
            assert!(err.contains("overflows"), "{bad}: {err}");
        }
        // Near the edge but finite: still fine.
        assert_eq!(Json::parse("1e308").unwrap().as_f64(), Some(1e308));
    }
}
