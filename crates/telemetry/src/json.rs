//! The workspace's one JSON reader and writer (std-only; no serde in this
//! workspace).
//!
//! Every document the workspace writes is rendered with [`escape`] and
//! [`fmt_f64`], and every document it reads back — goldens, bench logs,
//! `SLO.json`, lint JSONL, loadgen reports, Chrome traces, HTTP bodies —
//! goes through [`parse`]. The reader is strict: exactly one value per
//! input, JSON structure and string escapes, finite numbers. A number keeps
//! its token as written and converts it on access — with `f64::from_str`,
//! so a value written by [`fmt_f64`] reads back bit for bit, or as an
//! exact `u64`.
//!
//! ```
//! use telemetry::json::{self, Value};
//!
//! let doc = json::parse(r#"{"name": "a\"b", "y": 0.1, "tags": [true, null]}"#).unwrap();
//! assert_eq!(doc.string("name"), Ok("a\"b"));
//! assert_eq!(doc.num("y"), Ok(0.1));
//! assert_eq!(doc.array("tags").unwrap()[1], Value::Null);
//! assert!(json::parse("{} trailing").is_err());
//! ```

/// A parsed JSON value. Objects keep their members in document order.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` or `false`.
    Bool(bool),
    /// A number: its token as written, already checked to read as a
    /// finite `f64`.
    Num(String),
    /// A string, unescaped.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object: `(key, value)` members in document order.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// The first member `key` of an object; `None` for a missing key or a
    /// value that is not an object.
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.as_object()?
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
    }

    /// The number, if this is one: the `f64` nearest its token.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(token) => token.parse().ok(),
            _ => None,
        }
    }

    /// The number as an unsigned integer, if its token is one (digits only,
    /// no fraction or exponent) that fits a `u64`.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Num(token) => token.parse().ok(),
            _ => None,
        }
    }

    /// The members, if this is an object.
    pub fn as_object(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Obj(members) => Some(members),
            _ => None,
        }
    }

    /// Numeric member `key`, or an error naming it.
    pub fn num(&self, key: &str) -> Result<f64, String> {
        self.get(key)
            .and_then(Value::as_f64)
            .ok_or_else(|| format!("missing numeric field {key:?}"))
    }

    /// Unsigned integer member `key` (see [`Value::as_u64`]), or an error naming it.
    pub fn uint(&self, key: &str) -> Result<u64, String> {
        self.get(key)
            .and_then(Value::as_u64)
            .ok_or_else(|| format!("missing unsigned integer field {key:?}"))
    }

    /// String member `key`, or an error naming it.
    pub fn string(&self, key: &str) -> Result<&str, String> {
        match self.get(key) {
            Some(Value::Str(s)) => Ok(s),
            _ => Err(format!("missing string field {key:?}")),
        }
    }

    /// Boolean member `key`, or an error naming it.
    pub fn boolean(&self, key: &str) -> Result<bool, String> {
        match self.get(key) {
            Some(Value::Bool(b)) => Ok(*b),
            _ => Err(format!("missing boolean field {key:?}")),
        }
    }

    /// Array member `key`, or an error naming it.
    pub fn array(&self, key: &str) -> Result<&[Value], String> {
        match self.get(key) {
            Some(Value::Arr(items)) => Ok(items),
            _ => Err(format!("missing array field {key:?}")),
        }
    }
}

/// Parses `text` as exactly one JSON value; anything but whitespace after
/// it is an error.
///
/// # Errors
///
/// The first malformation and its byte offset.
pub fn parse(text: &str) -> Result<Value, String> {
    let mut p = Parser { text, pos: 0 };
    let value = p.value(0)?;
    p.skip_ws();
    if p.pos < text.len() {
        return Err(p.err("trailing content"));
    }
    Ok(value)
}

/// Nesting bound: the workspace's documents are a few levels deep, and the
/// bound keeps a hostile body from exhausting the stack.
const MAX_DEPTH: usize = 64;

struct Parser<'a> {
    text: &'a str,
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, what: &str) -> String {
        format!("{what} at byte {}", self.pos)
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    /// Skips whitespace, then consumes `byte` if it comes next.
    fn eat(&mut self, byte: u8) -> bool {
        self.skip_ws();
        let found = self.peek() == Some(byte);
        self.pos += usize::from(found);
        found
    }

    /// After an item: `true` on `,`, `false` on `close`.
    fn comma_or(&mut self, close: u8) -> Result<bool, String> {
        if self.eat(b',') {
            Ok(true)
        } else if self.eat(close) {
            Ok(false)
        } else {
            Err(self.err(&format!("expected ',' or '{}'", close as char)))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Value, String> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        if self.eat(b'{') {
            let mut members = Vec::new();
            if !self.eat(b'}') {
                loop {
                    if !self.eat(b'"') {
                        return Err(self.err("expected a string key"));
                    }
                    let key = self.string()?;
                    if !self.eat(b':') {
                        return Err(self.err("expected ':'"));
                    }
                    members.push((key, self.value(depth + 1)?));
                    if !self.comma_or(b'}')? {
                        break;
                    }
                }
            }
            return Ok(Value::Obj(members));
        }
        if self.eat(b'[') {
            let mut items = Vec::new();
            if !self.eat(b']') {
                loop {
                    items.push(self.value(depth + 1)?);
                    if !self.comma_or(b']')? {
                        break;
                    }
                }
            }
            return Ok(Value::Arr(items));
        }
        if self.eat(b'"') {
            return self.string().map(Value::Str);
        }
        for (word, value) in [
            ("true", Value::Bool(true)),
            ("false", Value::Bool(false)),
            ("null", Value::Null),
        ] {
            if self.text[self.pos..].starts_with(word) {
                self.pos += word.len();
                return Ok(value);
            }
        }
        // A number: the JSON number characters, converted from the exact
        // token; `from_str` rejects a malformed one.
        let start = self.pos;
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
        ) {
            self.pos += 1;
        }
        let token = &self.text[start..self.pos];
        match token.parse::<f64>() {
            Ok(v) if v.is_finite() && !token.starts_with(['+', '.']) => {
                Ok(Value::Num(token.to_string()))
            }
            _ if start == self.text.len() => Err(self.err("unexpected end of input")),
            _ => Err(format!("invalid value {token:?} at byte {start}")),
        }
    }

    /// The rest of a string whose opening quote is consumed, unescaped.
    fn string(&mut self) -> Result<String, String> {
        let mut out = String::new();
        loop {
            let c = self.text[self.pos..]
                .chars()
                .next()
                .ok_or_else(|| self.err("unterminated string"))?;
            self.pos += c.len_utf8();
            match c {
                '"' => return Ok(out),
                '\\' => {
                    let escaped = self.peek().ok_or_else(|| self.err("unterminated escape"))?;
                    self.pos += 1;
                    out.push(match escaped {
                        b'"' => '"',
                        b'\\' => '\\',
                        b'/' => '/',
                        b'b' => '\u{8}',
                        b'f' => '\u{c}',
                        b'n' => '\n',
                        b'r' => '\r',
                        b't' => '\t',
                        b'u' => {
                            // Surrogates (`char::from_u32` refuses them) are
                            // rejected: the writers emit non-ASCII as UTF-8.
                            let c = self
                                .text
                                .get(self.pos..self.pos + 4)
                                .filter(|h| h.bytes().all(|b| b.is_ascii_hexdigit()))
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .and_then(char::from_u32)
                                .ok_or_else(|| self.err("invalid \\u escape"))?;
                            self.pos += 4;
                            c
                        }
                        _ => return Err(self.err("invalid escape")),
                    });
                }
                c if c < ' ' => return Err(self.err("control character in string")),
                c => out.push(c),
            }
        }
    }
}

/// Escapes `s` for embedding inside a JSON string literal (without the
/// surrounding quotes).
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
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

/// Formats an `f64` as a JSON number. Non-finite values have no JSON
/// representation and render as `null`.
pub fn fmt_f64(v: f64) -> String {
    if v.is_finite() {
        // Rust's `{}` prints the shortest representation that round-trips,
        // and prints integral values without a trailing ".0" — both are
        // valid JSON numbers.
        format!("{v}")
    } else {
        "null".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escapes_specials() {
        assert_eq!(escape("a\"b\\c"), "a\\\"b\\\\c");
        assert_eq!(escape("x\n\t\r"), "x\\n\\t\\r");
        assert_eq!(escape("\u{1}"), "\\u0001");
        assert_eq!(escape("plain"), "plain");
    }

    #[test]
    fn formats_numbers() {
        assert_eq!(fmt_f64(11.0), "11");
        assert_eq!(fmt_f64(0.5), "0.5");
        assert_eq!(fmt_f64(f64::NAN), "null");
        assert_eq!(fmt_f64(f64::INFINITY), "null");
    }

    #[test]
    fn parses_nested_documents_in_order() {
        let v = parse(" {\"b\": [1, -2.5e3, true, null], \"a\": {\"c\": \"x\\\"y\u{e9}\\n\"}} ")
            .unwrap();
        let keys: Vec<&str> = v
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["b", "a"]);
        let b = v.array("b").unwrap();
        assert_eq!(b[0].as_u64(), Some(1));
        assert_eq!(b[1].as_f64(), Some(-2500.0));
        assert_eq!(b[2], Value::Bool(true));
        assert_eq!(b[3], Value::Null);
        assert_eq!(v.get("a").unwrap().string("c"), Ok("x\"y\u{e9}\n"));
        assert_eq!(parse("[]").unwrap(), Value::Arr(Vec::new()));
        assert_eq!(parse("{ }").unwrap(), Value::Obj(Vec::new()));
    }

    #[test]
    fn accessors_name_the_missing_field() {
        let v = parse(r#"{"n": 1.5, "s": "x", "neg": -1, "big": 1e300}"#).unwrap();
        assert_eq!(v.num("n"), Ok(1.5));
        assert!(v.num("s").unwrap_err().contains("\"s\""));
        assert!(v.string("n").is_err());
        assert!(v.uint("n").is_err(), "fractional");
        assert!(v.uint("neg").is_err(), "negative");
        assert!(v.uint("big").is_err(), "exponent");
        let max = parse(&u64::MAX.to_string()).unwrap();
        assert_eq!(max.as_u64(), Some(u64::MAX), "exact beyond 2^53");
        assert!(parse("18446744073709551616").unwrap().as_u64().is_none());
        assert!(v.boolean("n").is_err());
        assert!(v.array("n").is_err());
        assert!(Value::Null.get("n").is_none());
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in [
            "",
            " ",
            "{",
            "[1,]",
            "[1 2]",
            "{\"a\" 1}",
            "{\"a\":1,}",
            "{a:1}",
            "tru",
            "nul",
            "\"open",
            "\"bad \\q\"",
            "\"\\u12\"",
            "\"raw\ttab\"",
            "\"\\ud800\"",
            "{} x",
            "1e",
            "-",
            ".5",
            "+1",
            "NaN",
            "1e999",
            "'x'",
            "1 2",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} should not parse");
        }
        let deep = "[".repeat(MAX_DEPTH + 2);
        assert!(parse(&deep).is_err());
    }

    #[test]
    fn writer_round_trips_strings_and_numbers() {
        let s = "µ \"quoted\" \\ tab\t newline\n \u{1} {,}";
        assert_eq!(
            parse(&format!("\"{}\"", escape(s))).unwrap(),
            Value::Str(s.to_string())
        );
        assert_eq!(
            parse("\"\\u00e9\\u0001\"").unwrap(),
            Value::Str("é\u{1}".to_string())
        );
        for x in [
            0.1 + 0.2,
            1.0 / 3.0,
            5e-324,
            1.797_693_134_862_315_7e308,
            -0.0,
            1e-7,
        ] {
            let back = parse(&fmt_f64(x)).unwrap().as_f64().unwrap();
            assert_eq!(back.to_bits(), x.to_bits(), "{x:e}");
        }
    }
}
