//! JSON text encoding/decoding for [`Value`].
//!
//! A deliberately small, strict JSON subset: UTF-8 text, `\uXXXX`
//! escapes (including surrogate pairs), no comments, no trailing
//! commas. Numbers parse to `U64`/`I64` when integral and in range,
//! else `F64` — mirroring how the value model distinguishes counters
//! from measurements. Arrays and objects nest at most [`MAX_DEPTH`]
//! levels deep, so hostile input is an error, not a stack overflow.

use crate::{Error, Value};

/// The deepest nesting of arrays and objects [`Value::from_json`]
/// accepts: serde_json's default recursion limit. The parser recurses
/// once per level, so the cap bounds its stack use.
const MAX_DEPTH: usize = 128;

impl Value {
    /// Encodes this value as compact JSON text.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        write_json(self, &mut out);
        out
    }

    /// Parses JSON text into a value.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Json`] with a byte offset on malformed input,
    /// including arrays and objects nested more than 128 levels deep.
    pub fn from_json(text: &str) -> Result<Self, Error> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let v = p.parse_value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after JSON value"));
        }
        Ok(v)
    }
}

fn write_json(v: &Value, out: &mut String) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(true) => out.push_str("true"),
        Value::Bool(false) => out.push_str("false"),
        Value::U64(x) => out.push_str(&x.to_string()),
        Value::I64(x) => out.push_str(&x.to_string()),
        Value::F64(x) => write_f64(*x, out),
        Value::Str(s) => write_escaped(s, out),
        Value::Seq(xs) => {
            out.push('[');
            for (i, x) in xs.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_json(x, out);
            }
            out.push(']');
        }
        Value::Map(entries) => {
            out.push('{');
            for (i, (k, x)) in entries.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_escaped(k, out);
                out.push(':');
                write_json(x, out);
            }
            out.push('}');
        }
    }
}

fn write_f64(x: f64, out: &mut String) {
    if x.is_finite() {
        let s = format!("{x}");
        out.push_str(&s);
        // `{}` prints integral floats without a point; keep the float
        // shape so the value re-parses as F64, not U64.
        if !s.contains(['.', 'e', 'E']) {
            out.push_str(".0");
        }
    } else {
        // JSON has no Inf/NaN; encode as null like serde_json does.
        out.push_str("null");
    }
}

fn write_escaped(s: &str, out: &mut String) {
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

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects open around `pos`.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, reason: &str) -> Error {
        Error::Json {
            offset: self.pos,
            reason: reason.to_string(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        Some(b)
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), Error> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected `{}`", b as char)))
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

    fn parse_value(&mut self) -> Result<Value, Error> {
        self.skip_ws();
        match self.peek() {
            Some(b'n') if self.eat_literal("null") => Ok(Value::Null),
            Some(b't') if self.eat_literal("true") => Ok(Value::Bool(true)),
            Some(b'f') if self.eat_literal("false") => Ok(Value::Bool(false)),
            Some(b'"') => self.parse_string().map(Value::Str),
            Some(b'[') => self.nested(Self::parse_seq),
            Some(b'{') => self.nested(Self::parse_map),
            Some(b'-' | b'0'..=b'9') => self.parse_number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    /// Parses one array or object a level deeper, refusing to go past
    /// [`MAX_DEPTH`].
    fn nested(&mut self, parse: fn(&mut Self) -> Result<Value, Error>) -> Result<Value, Error> {
        if self.depth == MAX_DEPTH {
            return Err(self.err("arrays and objects nested too deep"));
        }
        self.depth += 1;
        let value = parse(self)?;
        self.depth -= 1;
        Ok(value)
    }

    fn parse_seq(&mut self) -> Result<Value, Error> {
        self.expect(b'[')?;
        let mut xs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Seq(xs));
        }
        loop {
            xs.push(self.parse_value()?);
            self.skip_ws();
            match self.bump() {
                Some(b',') => {}
                Some(b']') => return Ok(Value::Seq(xs)),
                _ => return Err(self.err("expected `,` or `]` in array")),
            }
        }
    }

    fn parse_map(&mut self) -> Result<Value, Error> {
        self.expect(b'{')?;
        let mut entries = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Map(entries));
        }
        loop {
            self.skip_ws();
            let key = self.parse_string()?;
            self.skip_ws();
            self.expect(b':')?;
            let val = self.parse_value()?;
            entries.push((key, val));
            self.skip_ws();
            match self.bump() {
                Some(b',') => {}
                Some(b'}') => return Ok(Value::Map(entries)),
                _ => return Err(self.err("expected `,` or `}` in object")),
            }
        }
    }

    fn parse_string(&mut self) -> Result<String, Error> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.bump() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => return Ok(out),
                Some(b'\\') => match self.bump() {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'u') => {
                        let hi = self.parse_hex4()?;
                        let c = if (0xD800..0xDC00).contains(&hi) {
                            // Surrogate pair: require the low half.
                            if !self.eat_literal("\\u") {
                                return Err(self.err("unpaired surrogate"));
                            }
                            let lo = self.parse_hex4()?;
                            if !(0xDC00..0xE000).contains(&lo) {
                                return Err(self.err("invalid low surrogate"));
                            }
                            let code = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                            char::from_u32(code)
                        } else {
                            char::from_u32(hi)
                        };
                        out.push(c.ok_or_else(|| self.err("invalid unicode escape"))?);
                    }
                    _ => return Err(self.err("invalid escape sequence")),
                },
                Some(b) if b < 0x20 => {
                    return Err(self.err("unescaped control character in string"))
                }
                Some(b) => {
                    // Re-assemble multi-byte UTF-8 straight from input.
                    let start = self.pos - 1;
                    let width = utf8_width(b);
                    self.pos = start + width;
                    if self.pos > self.bytes.len() {
                        return Err(self.err("truncated UTF-8 sequence"));
                    }
                    let chunk = std::str::from_utf8(&self.bytes[start..self.pos])
                        .map_err(|_| self.err("invalid UTF-8 in string"))?;
                    out.push_str(chunk);
                }
            }
        }
    }

    fn parse_hex4(&mut self) -> Result<u32, Error> {
        let mut code = 0u32;
        for _ in 0..4 {
            let b = self
                .bump()
                .ok_or_else(|| self.err("truncated \\u escape"))?;
            let digit = (b as char)
                .to_digit(16)
                .ok_or_else(|| self.err("invalid hex digit in \\u escape"))?;
            code = code * 16 + digit;
        }
        Ok(code)
    }

    fn parse_number(&mut self) -> Result<Value, Error> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        let mut is_float = false;
        if self.peek() == Some(b'.') {
            is_float = true;
            self.pos += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            is_float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid number"))?;
        if !is_float {
            if let Ok(u) = text.parse::<u64>() {
                return Ok(Value::U64(u));
            }
            if let Ok(i) = text.parse::<i64>() {
                return Ok(Value::I64(i));
            }
        }
        text.parse::<f64>()
            .map(Value::F64)
            .map_err(|_| self.err("invalid number"))
    }
}

fn utf8_width(first: u8) -> usize {
    match first {
        0x00..=0x7F => 1,
        0xC0..=0xDF => 2,
        0xE0..=0xEF => 3,
        _ => 4,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_nested() {
        let v = Value::Map(vec![
            (
                "name".to_string(),
                Value::Str("bert \"tiny\"\n".to_string()),
            ),
            (
                "xs".to_string(),
                Value::Seq(vec![Value::U64(1), Value::F64(-2.5), Value::Null]),
            ),
            ("ok".to_string(), Value::Bool(true)),
        ]);
        assert_eq!(Value::from_json(&v.to_json()).unwrap(), v);
    }

    #[test]
    fn integral_floats_stay_floats() {
        let v = Value::F64(4.0);
        assert_eq!(v.to_json(), "4.0");
        assert_eq!(Value::from_json("4.0").unwrap(), Value::F64(4.0));
        assert_eq!(Value::from_json("4").unwrap(), Value::U64(4));
    }

    #[test]
    fn negative_integers_parse_signed() {
        assert_eq!(Value::from_json("-7").unwrap(), Value::I64(-7));
    }

    #[test]
    fn unicode_escapes() {
        assert_eq!(
            Value::from_json(r#""é😀""#).unwrap(),
            Value::Str("é😀".to_string())
        );
        // Raw multi-byte UTF-8 passes through.
        assert_eq!(
            Value::from_json("\"naïve\"").unwrap(),
            Value::Str("naïve".to_string())
        );
    }

    #[test]
    fn errors_carry_offsets() {
        let err = Value::from_json("[1, 2,]").unwrap_err();
        assert!(matches!(err, Error::Json { offset: 6, .. }), "{err:?}");
        assert!(Value::from_json("{\"a\": 1} junk").is_err());
    }

    #[test]
    fn non_finite_floats_encode_null() {
        assert_eq!(Value::F64(f64::NAN).to_json(), "null");
    }

    #[test]
    fn deep_nesting_is_an_error_not_a_stack_overflow() {
        for deep in ["[".repeat(200_000), "{\"a\":".repeat(200_000)] {
            let err = Value::from_json(&deep).unwrap_err();
            assert!(matches!(err, Error::Json { .. }), "{err:?}");
        }
        // Exactly MAX_DEPTH levels parse, of arrays and of objects; one
        // more is refused at the opening byte of the level too many.
        let seqs = |depth| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        let maps = |depth| format!("{}null{}", "{\"a\":".repeat(depth), "}".repeat(depth));
        for (nest, width) in [(&seqs as &dyn Fn(usize) -> String, 1), (&maps, 5)] {
            assert!(Value::from_json(&nest(MAX_DEPTH)).is_ok());
            let err = Value::from_json(&nest(MAX_DEPTH + 1)).unwrap_err();
            assert!(
                matches!(err, Error::Json { offset, .. } if offset == MAX_DEPTH * width),
                "{err:?}"
            );
        }
    }
}
