//! A linear-time JSON reader for reply frames.
//!
//! The vendored `serde_json::from_str` re-validates the rest of the buffer as
//! UTF-8 for every string character, so a multi-megabyte `done` frame (full of
//! `"Compute"` keys) would take minutes to read. The benchmark must not change
//! that crate — the scan is one of the things it measures on the daemon's side
//! — so replies are read with this small recursive-descent parser into the
//! same [`serde::Value`] model, and typed values are then built through the
//! vendored `Deserialize` impls.

use serde::Value;

/// Parses one JSON document (surrounding whitespace allowed).
pub fn parse(bytes: &[u8]) -> Result<Value, String> {
    let mut p = Parser { bytes, pos: 0 };
    p.skip_ws();
    let value = p.value()?;
    p.skip_ws();
    if p.pos != bytes.len() {
        return Err(format!("trailing bytes at offset {}", p.pos));
    }
    Ok(value)
}

/// Field lookup on a JSON object value.
pub fn get<'a>(value: &'a Value, key: &str) -> Option<&'a Value> {
    value.as_map().and_then(|m| serde::map_get(m, key))
}

/// A non-negative integer field.
pub fn get_u64(value: &Value, key: &str) -> Option<u64> {
    match get(value, key)? {
        Value::UInt(n) => Some(*n),
        Value::Int(n) if *n >= 0 => Some(*n as u64),
        _ => None,
    }
}

/// A numeric field as `f64`.
pub fn get_f64(value: &Value, key: &str) -> Option<f64> {
    match get(value, key)? {
        Value::Float(x) => Some(*x),
        Value::UInt(n) => Some(*n as f64),
        Value::Int(n) => Some(*n as f64),
        _ => None,
    }
}

/// A string field.
pub fn get_str<'a>(value: &'a Value, key: &str) -> Option<&'a str> {
    get(value, key)?.as_str()
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

    fn fail<T>(&self, what: &str) -> Result<T, String> {
        Err(format!("{what} at offset {}", self.pos))
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            self.fail(&format!("expected `{}`", b as char))
        }
    }

    fn value(&mut self) -> Result<Value, String> {
        match self.peek() {
            Some(b'n') => self.keyword("null", Value::Null),
            Some(b't') => self.keyword("true", Value::Bool(true)),
            Some(b'f') => self.keyword("false", Value::Bool(false)),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b'[') => self.seq(),
            Some(b'{') => self.map(),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => self.fail("unexpected character"),
        }
    }

    fn keyword(&mut self, word: &str, value: Value) -> Result<Value, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            self.fail("invalid literal")
        }
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        let mut float = false;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => {}
                b'-' if self.pos == start => {}
                b'.' | b'e' | b'E' | b'+' | b'-' => float = true,
                _ => break,
            }
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ASCII digits");
        let parsed = if float {
            text.parse().map(Value::Float).ok()
        } else if text.starts_with('-') {
            text.parse().map(Value::Int).ok()
        } else {
            text.parse().map(Value::UInt).ok()
        };
        parsed.ok_or_else(|| format!("invalid number `{text}` at offset {start}"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // Copy the run up to the next quote or escape in one step.
            let run = self.pos;
            while !matches!(self.peek(), None | Some(b'"' | b'\\')) {
                self.pos += 1;
            }
            out.push_str(
                std::str::from_utf8(&self.bytes[run..self.pos])
                    .map_err(|_| format!("invalid UTF-8 in string at offset {run}"))?,
            );
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let escaped = self.peek();
                    self.pos += 1;
                    out.push(match escaped {
                        Some(b'"') => '"',
                        Some(b'\\') => '\\',
                        Some(b'/') => '/',
                        Some(b'n') => '\n',
                        Some(b'r') => '\r',
                        Some(b't') => '\t',
                        Some(b'b') => '\u{8}',
                        Some(b'f') => '\u{c}',
                        Some(b'u') => self.unicode_escape()?,
                        _ => return self.fail("invalid escape"),
                    });
                }
                _ => return self.fail("unterminated string"),
            }
        }
    }

    /// The code point of a `\uXXXX` escape (the daemon only emits these for
    /// control characters, so surrogate pairs are rejected, not combined).
    fn unicode_escape(&mut self) -> Result<char, String> {
        let code = self
            .bytes
            .get(self.pos..self.pos + 4)
            .and_then(|h| std::str::from_utf8(h).ok())
            .and_then(|h| u32::from_str_radix(h, 16).ok())
            .and_then(char::from_u32);
        match code {
            Some(c) => {
                self.pos += 4;
                Ok(c)
            }
            None => self.fail("invalid \\u escape"),
        }
    }

    fn seq(&mut self) -> Result<Value, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Seq(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Seq(items));
                }
                _ => return self.fail("expected `,` or `]`"),
            }
        }
    }

    fn map(&mut self) -> Result<Value, String> {
        self.expect(b'{')?;
        let mut entries = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Map(entries));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            entries.push((key, self.value()?));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Map(entries));
                }
                _ => return self.fail("expected `,` or `}`"),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn agrees_with_the_vendored_parser() {
        let text = r#" {"id":7,"ok":true,"cost":-1.5e3,"n":-4,"s":"a\"b\\\n\u0007é","seq":[1,[],{}],"z":null} "#;
        let ours = parse(text.as_bytes()).unwrap();
        let theirs: Value = serde_json::from_str(text).unwrap();
        assert_eq!(ours, theirs);
        assert_eq!(get_u64(&ours, "id"), Some(7));
        assert_eq!(get_f64(&ours, "cost"), Some(-1500.0));
        assert_eq!(get_str(&ours, "s"), Some("a\"b\\\n\u{7}é"));
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\" 1}",
            "\"abc",
            "tru",
            "1 2",
            "{\"a\":\"\\q\"}",
        ] {
            assert!(parse(bad.as_bytes()).is_err(), "{bad:?} must be rejected");
        }
    }
}
