//! Minimal JSON: escaping for the ledger writer and a small recursive
//! parser for `simreport` and the determinism tests. No external crates.
//!
//! The subset is exactly what the ledger emits: objects, arrays, strings,
//! `f64` numbers (integers up to 2^53 round-trip exactly; the ledger emits
//! 64-bit fingerprints as hex *strings* for this reason), booleans, and
//! `null`. Object key order is preserved so parsed records re-serialize
//! stably.

use std::fmt::Write as _;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number (stored as `f64`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in source key order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Look up `key` in an object; `None` for missing keys or non-objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(kv) => kv.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a string slice, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an `f64`, if it is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a `u64`, if it is a non-negative integral number.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= 2f64.powi(53) => Some(*n as u64),
            _ => None,
        }
    }

    /// Parse one JSON document from `s` (surrounding whitespace allowed).
    /// Arrays and objects nested deeper than [`MAX_DEPTH`] are an error.
    pub fn parse(s: &str) -> Result<Json, String> {
        let b = s.as_bytes();
        let mut i = 0usize;
        let v = parse_value(b, &mut i, 0)?;
        skip_ws(b, &mut i);
        if i != b.len() {
            return Err(format!("trailing data at byte {i}"));
        }
        Ok(v)
    }
}

/// Escape `s` as the *contents* of a JSON string (no surrounding quotes).
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
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
    out
}

/// Format an `f64` for a JSON number field: shortest round-trip form, with
/// non-finite values (never produced by healthy runs) mapped to `null`.
pub fn num(v: f64) -> String {
    if v.is_finite() {
        let s = format!("{v}");
        // `{}` prints integral floats without a point; that is still valid
        // JSON, and parses back identically.
        s
    } else {
        "null".to_string()
    }
}

fn skip_ws(b: &[u8], i: &mut usize) {
    while *i < b.len() && matches!(b[*i], b' ' | b'\t' | b'\n' | b'\r') {
        *i += 1;
    }
}

/// Deepest array/object nesting [`Json::parse`] accepts. Ledger records
/// and wire requests nest a few levels; the limit bounds the recursive
/// parser's stack use on hostile input (a daemon connection thread must
/// not overflow its stack on one request line).
pub const MAX_DEPTH: usize = 128;

fn parse_value(b: &[u8], i: &mut usize, depth: usize) -> Result<Json, String> {
    skip_ws(b, i);
    if matches!(b.get(*i), Some(b'{' | b'[')) && depth >= MAX_DEPTH {
        return Err(format!("nesting deeper than {MAX_DEPTH} at byte {i}"));
    }
    match b.get(*i) {
        None => Err("unexpected end of input".to_string()),
        Some(b'{') => {
            *i += 1;
            let mut kv = Vec::new();
            skip_ws(b, i);
            if b.get(*i) == Some(&b'}') {
                *i += 1;
                return Ok(Json::Obj(kv));
            }
            loop {
                skip_ws(b, i);
                let key = match parse_value(b, i, depth + 1)? {
                    Json::Str(s) => s,
                    other => return Err(format!("object key must be a string, got {other:?}")),
                };
                skip_ws(b, i);
                if b.get(*i) != Some(&b':') {
                    return Err(format!("expected ':' at byte {i}"));
                }
                *i += 1;
                let val = parse_value(b, i, depth + 1)?;
                kv.push((key, val));
                skip_ws(b, i);
                match b.get(*i) {
                    Some(b',') => *i += 1,
                    Some(b'}') => {
                        *i += 1;
                        return Ok(Json::Obj(kv));
                    }
                    _ => return Err(format!("expected ',' or '}}' at byte {i}")),
                }
            }
        }
        Some(b'[') => {
            *i += 1;
            let mut arr = Vec::new();
            skip_ws(b, i);
            if b.get(*i) == Some(&b']') {
                *i += 1;
                return Ok(Json::Arr(arr));
            }
            loop {
                arr.push(parse_value(b, i, depth + 1)?);
                skip_ws(b, i);
                match b.get(*i) {
                    Some(b',') => *i += 1,
                    Some(b']') => {
                        *i += 1;
                        return Ok(Json::Arr(arr));
                    }
                    _ => return Err(format!("expected ',' or ']' at byte {i}")),
                }
            }
        }
        Some(b'"') => parse_string(b, i).map(Json::Str),
        Some(b't') => parse_lit(b, i, "true", Json::Bool(true)),
        Some(b'f') => parse_lit(b, i, "false", Json::Bool(false)),
        Some(b'n') => parse_lit(b, i, "null", Json::Null),
        Some(_) => parse_number(b, i),
    }
}

fn parse_lit(b: &[u8], i: &mut usize, lit: &str, v: Json) -> Result<Json, String> {
    if b[*i..].starts_with(lit.as_bytes()) {
        *i += lit.len();
        Ok(v)
    } else {
        Err(format!("invalid literal at byte {i}"))
    }
}

fn parse_string(b: &[u8], i: &mut usize) -> Result<String, String> {
    debug_assert_eq!(b[*i], b'"');
    *i += 1;
    let mut out = String::new();
    loop {
        match b.get(*i) {
            None => return Err("unterminated string".to_string()),
            Some(b'"') => {
                *i += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *i += 1;
                match b.get(*i) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hex = b
                            .get(*i + 1..*i + 5)
                            .ok_or_else(|| "truncated \\u escape".to_string())?;
                        let code = u32::from_str_radix(
                            std::str::from_utf8(hex).map_err(|e| e.to_string())?,
                            16,
                        )
                        .map_err(|e| e.to_string())?;
                        // Surrogate pairs are not produced by the ledger;
                        // map lone surrogates to the replacement char.
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        *i += 4;
                    }
                    _ => return Err(format!("bad escape at byte {i}")),
                }
                *i += 1;
            }
            Some(_) => {
                // Consume one UTF-8 scalar (input is a &str, so this is
                // always well-formed).
                let s = std::str::from_utf8(&b[*i..]).map_err(|e| e.to_string())?;
                let c = s.chars().next().unwrap();
                out.push(c);
                *i += c.len_utf8();
            }
        }
    }
}

fn parse_number(b: &[u8], i: &mut usize) -> Result<Json, String> {
    let start = *i;
    while *i < b.len() && matches!(b[*i], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E') {
        *i += 1;
    }
    let s = std::str::from_utf8(&b[start..*i]).map_err(|e| e.to_string())?;
    s.parse::<f64>()
        .map(Json::Num)
        .map_err(|_| format!("invalid number {s:?} at byte {start}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_ledger_shape() {
        let line = r#"{"v":1,"bench":"gzip","scale":0.25,"cfg":"00ff","cost":{"detailed":123,"work_units":456.5},"phases":{"measure":{"ns":10,"insts":123,"bytes":0,"count":1}},"ok":true,"none":null,"arr":[1,2]}"#;
        let j = Json::parse(line).expect("parses");
        assert_eq!(j.get("v").and_then(Json::as_u64), Some(1));
        assert_eq!(j.get("bench").and_then(Json::as_str), Some("gzip"));
        assert_eq!(j.get("scale").and_then(Json::as_f64), Some(0.25));
        let cost = j.get("cost").expect("cost");
        assert_eq!(cost.get("detailed").and_then(Json::as_u64), Some(123));
        assert_eq!(cost.get("work_units").and_then(Json::as_f64), Some(456.5));
        assert_eq!(j.get("ok"), Some(&Json::Bool(true)));
        assert_eq!(j.get("none"), Some(&Json::Null));
        assert_eq!(
            j.get("arr"),
            Some(&Json::Arr(vec![Json::Num(1.0), Json::Num(2.0)]))
        );
    }

    #[test]
    fn escape_round_trips() {
        let nasty = "a\"b\\c\nd\te\u{1}f — ünïcode";
        let line = format!("{{\"s\":\"{}\"}}", escape(nasty));
        let j = Json::parse(&line).expect("parses");
        assert_eq!(j.get("s").and_then(Json::as_str), Some(nasty));
    }

    #[test]
    fn num_round_trips_shortest_form() {
        for v in [0.0, 1.5, 0.1, 123456789.0, -2.25e-8] {
            let s = num(v);
            let parsed = Json::parse(&s).expect("number parses");
            assert_eq!(parsed.as_f64(), Some(v), "{s}");
        }
        assert_eq!(num(f64::NAN), "null");
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in ["{", "[1,", "\"abc", "{\"a\" 1}", "{} trailing", "tru"] {
            assert!(Json::parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn u64_conversion_guards_fractions_and_sign() {
        assert_eq!(Json::Num(5.0).as_u64(), Some(5));
        assert_eq!(Json::Num(5.5).as_u64(), None);
        assert_eq!(Json::Num(-1.0).as_u64(), None);
    }

    #[test]
    fn nesting_is_capped_at_max_depth() {
        let nested = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        assert!(Json::parse(&nested(MAX_DEPTH)).is_ok());
        let err = Json::parse(&nested(MAX_DEPTH + 1)).unwrap_err();
        assert!(err.contains("nesting deeper than"), "{err}");
        let objects = format!(
            "{}1{}",
            "{\"a\":".repeat(MAX_DEPTH + 1),
            "}".repeat(MAX_DEPTH + 1)
        );
        assert!(Json::parse(&objects).is_err());
        // Far past any stack the recursion could survive unbounded; the
        // cap turns it into an error after MAX_DEPTH frames.
        assert!(Json::parse(&"[".repeat(1 << 20)).is_err());
    }
}
