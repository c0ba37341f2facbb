//! The service's hand-rolled JSON layer.
//!
//! The suite is offline (no serde), so the wire protocol carries its
//! own parser and writer. The versioned protocol needs **nested
//! containers** — `set_inputs` ships an input-distribution object,
//! `multi_cycle` a nested simulation config, sweeps an explicit site
//! array — so this module speaks full JSON: strict (no trailing
//! garbage, no trailing commas, no NaN/Inf, duplicate keys rejected at
//! every level), with a nesting-depth guard because a line deeper than
//! a few levels is corrupt input, not a request.
//!
//! Rendering goes through [`fmt::Display`]: `JsonValue` prints as
//! compact single-line JSON, and numbers use Rust's shortest
//! round-trip float form, so an `f64` survives a
//! render → parse cycle **bit-identically** — the property the wire
//! protocol's "TCP equals in-process" guarantee rests on.

use std::fmt;

/// A parsed JSON value (full JSON; numbers are `f64`).
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// A string literal.
    Str(String),
    /// Any JSON number.
    Num(f64),
    /// `true` / `false`.
    Bool(bool),
    /// `null`.
    Null,
    /// An array of values.
    Arr(Vec<JsonValue>),
    /// An object, as key/value pairs in declaration order.
    Obj(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// The value under `key`, when this is an object.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, when this is a string.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, when this is a number.
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The numeric payload as a non-negative integer count, when this
    /// is a number with no fractional part.
    #[must_use]
    pub fn as_count(&self) -> Option<u64> {
        match self {
            JsonValue::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= u64::MAX as f64 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// A short name for the value's type, for error messages.
    #[must_use]
    pub fn type_name(&self) -> &'static str {
        match self {
            JsonValue::Str(_) => "string",
            JsonValue::Num(_) => "number",
            JsonValue::Bool(_) => "bool",
            JsonValue::Null => "null",
            JsonValue::Arr(_) => "array",
            JsonValue::Obj(_) => "object",
        }
    }
}

impl fmt::Display for JsonValue {
    /// Compact single-line JSON. Numbers print in Rust's shortest
    /// round-trip form (parse of the output is bit-identical).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JsonValue::Str(s) => write!(f, "\"{}\"", json_escape(s)),
            JsonValue::Num(n) => write!(f, "{}", fmt_f64(*n)),
            JsonValue::Bool(b) => write!(f, "{b}"),
            JsonValue::Null => f.write_str("null"),
            JsonValue::Arr(items) => {
                f.write_str("[")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write!(f, "{item}")?;
                }
                f.write_str("]")
            }
            JsonValue::Obj(pairs) => {
                f.write_str("{")?;
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write!(f, "\"{}\": {v}", json_escape(k))?;
                }
                f.write_str("}")
            }
        }
    }
}

/// Renders an `f64` as a JSON number in shortest round-trip form.
/// Rust's `{}` float formatting never emits an exponent, `NaN` or
/// `inf` markers for finite values, so the output is always a valid
/// JSON number; non-finite inputs (which the protocol never produces)
/// render as `null`.
#[must_use]
pub fn fmt_f64(n: f64) -> String {
    if n.is_finite() {
        format!("{n}")
    } else {
        "null".to_owned()
    }
}

/// Escapes a string for embedding in JSON output.
#[must_use]
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Parses one complete JSON document (usually an object line).
///
/// # Errors
///
/// Returns a human-readable message for malformed or truncated input,
/// trailing garbage, duplicate keys, or nesting deeper than the guard.
pub fn parse_value(src: &str) -> Result<JsonValue, String> {
    let mut p = Parser {
        chars: src.chars().peekable(),
        depth: 0,
    };
    p.skip_ws();
    let value = p.value()?;
    p.skip_ws();
    match p.peek() {
        None => Ok(value),
        Some(c) => Err(format!("trailing input starting at `{c}`")),
    }
}

/// Parses one JSON object line into its key/value pairs in declaration
/// order. Values may be nested containers.
///
/// # Errors
///
/// As [`parse_value`], plus an error when the document is not an
/// object.
pub fn parse_object(src: &str) -> Result<Vec<(String, JsonValue)>, String> {
    match parse_value(src)? {
        JsonValue::Obj(pairs) => Ok(pairs),
        other => Err(format!("expected an object, got {}", other.type_name())),
    }
}

struct Parser<'a> {
    chars: std::iter::Peekable<std::str::Chars<'a>>,
    depth: usize,
}

impl Parser<'_> {
    /// Far deeper than any legitimate request line; a guard, not a
    /// limit real traffic meets.
    const MAX_DEPTH: usize = 32;

    fn peek(&mut self) -> Option<char> {
        self.chars.peek().copied()
    }

    fn next(&mut self) -> Option<char> {
        self.chars.next()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(c) if c.is_whitespace()) {
            self.next();
        }
    }

    fn expect(&mut self, want: char) -> Result<(), String> {
        match self.next() {
            Some(c) if c == want => Ok(()),
            Some(c) => Err(format!("expected `{want}`, got `{c}`")),
            None => Err(format!("expected `{want}`, got end of input")),
        }
    }

    /// Four hex digits of a `\u` escape.
    fn hex4(&mut self) -> Result<u32, String> {
        let mut code = 0u32;
        for _ in 0..4 {
            let d = self
                .next()
                .and_then(|c| c.to_digit(16))
                .ok_or("bad \\u escape")?;
            code = code * 16 + d;
        }
        Ok(code)
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect('"')?;
        let mut out = String::new();
        loop {
            match self.next() {
                None => return Err("unterminated string".to_owned()),
                Some('"') => return Ok(out),
                Some('\\') => match self.next() {
                    Some('"') => out.push('"'),
                    Some('\\') => out.push('\\'),
                    Some('/') => out.push('/'),
                    Some('n') => out.push('\n'),
                    Some('r') => out.push('\r'),
                    Some('t') => out.push('\t'),
                    Some('b') => out.push('\u{8}'),
                    Some('f') => out.push('\u{c}'),
                    Some('u') => {
                        let code = self.hex4()?;
                        match code {
                            // A high surrogate must be followed by a
                            // `\u`-escaped low surrogate (JSON encodes
                            // non-BMP characters as UTF-16 pairs).
                            0xD800..=0xDBFF => {
                                if self.next() != Some('\\') || self.next() != Some('u') {
                                    return Err("unpaired high surrogate in \\u escape".to_owned());
                                }
                                let low = self.hex4()?;
                                if !(0xDC00..=0xDFFF).contains(&low) {
                                    return Err(format!(
                                        "\\u{code:04x} must pair with a low surrogate, got \\u{low:04x}"
                                    ));
                                }
                                let combined = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
                                out.push(char::from_u32(combined).ok_or("bad \\u code point")?);
                            }
                            0xDC00..=0xDFFF => {
                                return Err("unpaired low surrogate in \\u escape".to_owned())
                            }
                            _ => out.push(char::from_u32(code).ok_or("bad \\u code point")?),
                        }
                    }
                    other => return Err(format!("bad escape {other:?}")),
                },
                Some(c) => out.push(c),
            }
        }
    }

    fn value(&mut self) -> Result<JsonValue, String> {
        if self.depth >= Self::MAX_DEPTH {
            return Err("nesting too deep".to_owned());
        }
        match self.peek() {
            None => Err("unexpected end of input".to_owned()),
            Some('"') => Ok(JsonValue::Str(self.string()?)),
            Some('t' | 'f' | 'n') => {
                let mut word = String::new();
                while matches!(self.peek(), Some(c) if c.is_ascii_alphabetic()) {
                    word.push(self.next().expect("peeked"));
                }
                match word.as_str() {
                    "true" => Ok(JsonValue::Bool(true)),
                    "false" => Ok(JsonValue::Bool(false)),
                    "null" => Ok(JsonValue::Null),
                    other => Err(format!("unknown literal `{other}`")),
                }
            }
            Some(c) if c == '-' || c.is_ascii_digit() => {
                let mut text = String::new();
                while matches!(self.peek(), Some(c) if c == '-' || c == '+' || c == '.'
                    || c == 'e' || c == 'E' || c.is_ascii_digit())
                {
                    text.push(self.next().expect("peeked"));
                }
                let n: f64 = text
                    .parse()
                    .map_err(|e| format!("bad number `{text}`: {e}"))?;
                if !n.is_finite() {
                    return Err(format!("non-finite number `{text}`"));
                }
                Ok(JsonValue::Num(n))
            }
            Some('[') => {
                self.next();
                self.depth += 1;
                let mut items = Vec::new();
                self.skip_ws();
                if self.peek() == Some(']') {
                    self.next();
                    self.depth -= 1;
                    return Ok(JsonValue::Arr(items));
                }
                loop {
                    self.skip_ws();
                    items.push(self.value()?);
                    self.skip_ws();
                    match self.next() {
                        Some(',') => continue,
                        Some(']') => break,
                        Some(c) => return Err(format!("expected `,` or `]`, got `{c}`")),
                        None => return Err("unterminated array".to_owned()),
                    }
                }
                self.depth -= 1;
                Ok(JsonValue::Arr(items))
            }
            Some('{') => {
                self.next();
                self.depth += 1;
                let mut pairs: Vec<(String, JsonValue)> = Vec::new();
                self.skip_ws();
                if self.peek() == Some('}') {
                    self.next();
                    self.depth -= 1;
                    return Ok(JsonValue::Obj(pairs));
                }
                loop {
                    self.skip_ws();
                    let key = self.string()?;
                    if pairs.iter().any(|(k, _)| *k == key) {
                        return Err(format!("duplicate key `{key}`"));
                    }
                    self.skip_ws();
                    self.expect(':')?;
                    self.skip_ws();
                    let value = self.value()?;
                    pairs.push((key, value));
                    self.skip_ws();
                    match self.next() {
                        Some(',') => continue,
                        Some('}') => break,
                        Some(c) => return Err(format!("expected `,` or `}}`, got `{c}`")),
                        None => return Err("unterminated object".to_owned()),
                    }
                }
                self.depth -= 1;
                Ok(JsonValue::Obj(pairs))
            }
            Some(c) => Err(format!("expected a value, got `{c}`")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_nested_containers() {
        let v = parse_value(
            r#"{"op": "set_inputs", "inputs": {"default": 0.5, "overrides": {"a": 0.9}}, "sites": ["G0", "G1"], "n": -2.5e1}"#,
        )
        .unwrap();
        assert_eq!(
            v.get("inputs").unwrap().get("default").unwrap().as_f64(),
            Some(0.5)
        );
        assert_eq!(
            v.get("inputs")
                .unwrap()
                .get("overrides")
                .unwrap()
                .get("a")
                .unwrap()
                .as_f64(),
            Some(0.9)
        );
        let JsonValue::Arr(sites) = v.get("sites").unwrap() else {
            panic!("array expected");
        };
        assert_eq!(sites[1].as_str(), Some("G1"));
        assert_eq!(v.get("n").unwrap().as_f64(), Some(-25.0));
    }

    #[test]
    fn rejects_malformed_and_truncated_input() {
        for bad in [
            "",
            "{",
            "[",
            "{\"a\": }",
            "{\"a\": 1,}",
            "[1, 2,]",
            "{\"a\": 1} trailing",
            "{\"a\": 1, \"a\": 2}",
            "{\"a\": {\"b\": 1, \"b\": 2}}",
            "{\"a\": 1e999}",
            "{\"a\": truth}",
            "{\"a\": \"unterminated",
            "{\"a\": [1, 2",
        ] {
            assert!(parse_value(bad).is_err(), "accepted `{bad}`");
        }
        // Every proper prefix of a canonical line is invalid.
        let line = r#"{"v": 2, "op": "sweep", "sites": ["G0"], "cfg": {"top": 3}}"#;
        for cut in 1..line.len() {
            if line.is_char_boundary(cut) {
                assert!(parse_value(&line[..cut]).is_err(), "accepted prefix {cut}");
            }
        }
    }

    #[test]
    fn surrogate_pairs_decode_and_lone_halves_fail() {
        // A stock serializer's ASCII escaping of U+1F600 (😀).
        let v = parse_value(r#"{"s": "\ud83d\ude00"}"#).unwrap();
        assert_eq!(v.get("s").unwrap().as_str(), Some("\u{1F600}"));
        // And the raw character, which needs no pairing.
        let v = parse_value("{\"s\": \"\u{1F600}\"}").unwrap();
        assert_eq!(v.get("s").unwrap().as_str(), Some("\u{1F600}"));
        for bad in [
            r#""\ud83d""#,       // unpaired high surrogate
            r#""\ud83dxy""#,     // high surrogate, no escape follows
            r#""\ud83d\u0041""#, // paired with a non-surrogate
            r#""\ude00""#,       // lone low surrogate
        ] {
            assert!(parse_value(bad).is_err(), "accepted `{bad}`");
        }
    }

    #[test]
    fn depth_guard_rejects_pathological_nesting() {
        let deep = "[".repeat(64) + &"]".repeat(64);
        assert!(parse_value(&deep).unwrap_err().contains("nesting"));
    }

    #[test]
    fn display_round_trips_bit_identically() {
        let v = JsonValue::Obj(vec![
            ("p".to_owned(), JsonValue::Num(0.1 + 0.2)),
            ("tiny".to_owned(), JsonValue::Num(1.0e-300)),
            ("s".to_owned(), JsonValue::Str("q\"\\\nA".to_owned())),
            (
                "arr".to_owned(),
                JsonValue::Arr(vec![JsonValue::Bool(true), JsonValue::Null]),
            ),
        ]);
        let text = v.to_string();
        let back = parse_value(&text).unwrap();
        assert_eq!(back, v, "render/parse round trip: {text}");
        // Bit-identity of the floats specifically.
        assert_eq!(
            back.get("p").unwrap().as_f64().unwrap().to_bits(),
            (0.1f64 + 0.2).to_bits()
        );
        assert_eq!(json_escape("q\"\\\n"), "q\\\"\\\\\\n");
    }

    #[test]
    fn count_accessor_rejects_fractions_and_negatives() {
        assert_eq!(JsonValue::Num(5000.0).as_count(), Some(5000));
        assert_eq!(JsonValue::Num(1.5).as_count(), None);
        assert_eq!(JsonValue::Num(-1.0).as_count(), None);
        assert_eq!(JsonValue::Str("5".into()).as_count(), None);
    }
}
