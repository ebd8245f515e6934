//! Reading JSON back: the one dependency-free parser in the workspace,
//! producing [`Json`] values, plus [`JsonExt`] field access.
//!
//! The parser is strict: a truncated prefix, trailing bytes, or any
//! malformed token is an error, never a best-effort partial value. That
//! is what lets `pim-status/v1` readers tell a complete snapshot from a
//! torn one. It follows RFC 8259 with two deliberate gaps: leading
//! zeros are accepted, and `\u` escapes of UTF-16 surrogates are
//! rejected (the writer never emits them). Numbers become `U64` when
//! integral and non-negative, `I64` when integral and negative, `F64`
//! otherwise — the shapes the writer emits — so a full-range `u64`
//! round-trips exactly.

use crate::Json;

/// Parses one JSON document; trailing whitespace is allowed, trailing
/// content is an error.
///
/// # Errors
///
/// A message naming the byte offset and what was expected there.
///
/// # Examples
///
/// ```
/// use pim_obs::{parse_json, JsonExt};
/// let doc = parse_json(r#"{"cycles": 61234, "ok": true}"#).unwrap();
/// assert_eq!(doc.get("cycles").and_then(JsonExt::as_u64), Some(61234));
/// assert!(parse_json(r#"{"cycles": 61"#).is_err());
/// ```
pub fn parse_json(src: &str) -> Result<Json, String> {
    let mut p = Parser { src, pos: 0 };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != src.len() {
        return Err(p.err("trailing content after JSON value"));
    }
    Ok(v)
}

struct Parser<'a> {
    src: &'a str,
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, msg: &str) -> String {
        format!("json parse error at byte {}: {}", self.pos, msg)
    }

    fn peek(&self) -> Option<u8> {
        self.src.as_bytes().get(self.pos).copied()
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
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.src.as_bytes()[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected '{word}'")))
        }
    }

    /// Advances past a run of ASCII digits; errors with `what` when
    /// there is none.
    fn digits(&mut self, what: &str) -> Result<(), String> {
        let start = self.pos;
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.pos += 1;
        }
        if self.pos == start {
            return Err(self.err(what));
        }
        Ok(())
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(c) => Err(self.err(&format!("unexpected byte '{}'", c as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn array(&mut self) -> Result<Json, String> {
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
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            pairs.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(pairs));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut s = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(s);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => s.push('"'),
                        Some(b'\\') => s.push('\\'),
                        Some(b'/') => s.push('/'),
                        Some(b'b') => s.push('\u{8}'),
                        Some(b'f') => s.push('\u{c}'),
                        Some(b'n') => s.push('\n'),
                        Some(b'r') => s.push('\r'),
                        Some(b't') => s.push('\t'),
                        Some(b'u') => {
                            let hex = self
                                .src
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or_else(|| self.err("truncated \\u escape"))?;
                            if !hex.bytes().all(|b| b.is_ascii_hexdigit()) {
                                return Err(self.err("bad \\u escape"));
                            }
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("bad \\u escape"))?;
                            // Surrogates would need pairing; the writer
                            // never emits them, so reject rather than
                            // guess.
                            s.push(
                                char::from_u32(code)
                                    .ok_or_else(|| self.err("bad \\u codepoint"))?,
                            );
                            self.pos += 4;
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                    self.pos += 1;
                }
                Some(b) if b < 0x20 => return Err(self.err("raw control char in string")),
                Some(_) => {
                    // The input is a `str` and `pos` sits on a character
                    // boundary, so this decodes one scalar in O(1).
                    let ch = self
                        .src
                        .get(self.pos..)
                        .and_then(|rest| rest.chars().next())
                        .ok_or_else(|| self.err("invalid utf-8 in string"))?;
                    s.push(ch);
                    self.pos += ch.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        self.digits("expected digits")?;
        let mut integral = true;
        if self.peek() == Some(b'.') {
            integral = false;
            self.pos += 1;
            self.digits("expected fraction digits")?;
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            integral = false;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            self.digits("expected exponent digits")?;
        }
        let text = &self.src[start..self.pos];
        if integral {
            if let Ok(u) = text.parse::<u64>() {
                return Ok(Json::U64(u));
            }
            if let Ok(i) = text.parse::<i64>() {
                return Ok(Json::I64(i));
            }
        }
        text.parse::<f64>()
            .map(Json::F64)
            .map_err(|_| self.err("bad number"))
    }
}

/// Field access helpers for parsed values.
pub trait JsonExt {
    /// Looks a key up in an object; `None` for non-objects.
    fn get(&self, key: &str) -> Option<&Json>;
    /// The value as u64 if it is a non-negative integer.
    fn as_u64(&self) -> Option<u64>;
    /// The value as f64 if it is any number.
    fn as_f64(&self) -> Option<f64>;
    /// The value as a string slice.
    fn as_str(&self) -> Option<&str>;
    /// The value as a bool.
    fn as_bool(&self) -> Option<bool>;
}

impl JsonExt for Json {
    fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    fn as_u64(&self) -> Option<u64> {
        match self {
            Json::U64(u) => Some(*u),
            Json::I64(i) => u64::try_from(*i).ok(),
            _ => None,
        }
    }

    fn as_f64(&self) -> Option<f64> {
        match self {
            Json::U64(u) => Some(*u as f64),
            Json::I64(i) => Some(*i as f64),
            Json::F64(x) => Some(*x),
            _ => None,
        }
    }

    fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_what_the_strict_status_reader_always_rejected() {
        // The four inputs the tracer's and the status snapshot's former
        // parsers disagreed on: a fraction or integer part with no
        // digits, a raw control character inside a string, and a lone
        // UTF-16 surrogate escape.
        for bad in ["1.", "-.5", "\"a\u{1}b\"", r#""\ud800""#] {
            assert!(parse_json(bad).is_err(), "{bad:?} parsed");
        }
        assert_eq!(parse_json("1.0"), Ok(Json::F64(1.0)));
        assert_eq!(parse_json("-0.5"), Ok(Json::F64(-0.5)));
        assert_eq!(parse_json(r#""a\u0001b""#), Ok(Json::from("a\u{1}b")));
        assert_eq!(parse_json(r#""é""#), Ok(Json::from("é")));
    }
}
