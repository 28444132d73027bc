//! A strict JSON well-formedness check for the `stats --json` export
//! ([`validate_json`]). Hand-rolled: the workspace is offline, no serde;
//! strings carry no escapes, since every emitted key is a plain
//! identifier.

/// Validates that `json` is one syntactically well-formed JSON value
/// (objects, arrays, strings without escapes, finite numbers, booleans,
/// null) with nothing trailing. This is the check the `stats --json`
/// snapshot test runs over the nested Prometheus-shaped document.
///
/// # Errors
///
/// A description of the first byte offset where the document stops being
/// JSON.
pub fn validate_json(json: &str) -> Result<(), String> {
    let mut p = Parser {
        bytes: json.as_bytes(),
        pos: 0,
    };
    p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing content at byte {}", p.pos));
    }
    Ok(())
}

/// Minimal recursive-descent parser for [`validate_json`].
struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| b.is_ascii_whitespace())
        {
            self.pos += 1;
        }
    }

    fn peek_is(&mut self, want: u8) -> bool {
        self.skip_ws();
        self.bytes.get(self.pos) == Some(&want)
    }

    fn eat(&mut self, want: u8) -> bool {
        if self.peek_is(want) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect(&mut self, want: u8) -> Result<(), String> {
        if self.eat(want) {
            Ok(())
        } else {
            Err(format!("expected {:?} at byte {}", want as char, self.pos))
        }
    }

    fn string(&mut self) -> Result<(), String> {
        self.expect(b'"')?;
        let start = self.pos;
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b'"' {
                std::str::from_utf8(&self.bytes[start..self.pos]).map_err(|e| e.to_string())?;
                self.pos += 1;
                return Ok(());
            }
            if b == b'\\' {
                return Err("escape sequences are not part of the schema".into());
            }
            self.pos += 1;
        }
        Err("unterminated string".into())
    }

    /// One number: a token that parses as an `f64`.
    fn number(&mut self) -> Result<(), String> {
        self.skip_ws();
        let start = self.pos;
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E'))
        {
            self.pos += 1;
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .ok()
            .filter(|s| s.parse::<f64>().is_ok())
            .map(|_| ())
            .ok_or_else(|| format!("expected a number at byte {start}"))
    }

    /// One arbitrary JSON value, recursively.
    fn value(&mut self) -> Result<(), String> {
        self.skip_ws();
        match self.bytes.get(self.pos) {
            Some(b'{') => {
                self.pos += 1;
                if !self.peek_is(b'}') {
                    loop {
                        self.string()?;
                        self.expect(b':')?;
                        self.value()?;
                        if !self.eat(b',') {
                            break;
                        }
                    }
                }
                self.expect(b'}')
            }
            Some(b'[') => {
                self.pos += 1;
                if !self.peek_is(b']') {
                    loop {
                        self.value()?;
                        if !self.eat(b',') {
                            break;
                        }
                    }
                }
                self.expect(b']')
            }
            Some(b'"') => self.string(),
            Some(b't') => self.keyword("true"),
            Some(b'f') => self.keyword("false"),
            Some(b'n') => self.keyword("null"),
            _ => self.number(),
        }
    }

    fn keyword(&mut self, word: &str) -> Result<(), String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(())
        } else {
            Err(format!("expected {word:?} at byte {}", self.pos))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validate_json_accepts_nested_documents() {
        validate_json(r#"{"a": {"b": [1, 2.5, "s", true, null]}, "c": -3e2}"#).unwrap();
        validate_json("[]").unwrap();
        validate_json("42").unwrap();
    }

    #[test]
    fn validate_json_rejects_non_json() {
        assert!(validate_json("").is_err());
        assert!(validate_json("{").is_err());
        assert!(validate_json(r#"{"a": }"#).is_err());
        assert!(validate_json("[1,]").is_err());
        assert!(validate_json("{} trailing").is_err());
        assert!(validate_json(r#"{"a": 1} {"b": 2}"#).is_err());
    }
}
