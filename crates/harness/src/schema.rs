//! The trajectory-file schema (`SCENARIOS_pioman.json`), owned in one
//! place: [`Row`] is the record, [`render_json`] writes it,
//! [`parse_trajectory`] reads it back, and the round-trip tests below pin
//! that `parse(render(x)) == x` — emit and parse cannot drift.
//!
//! One JSON object maps each scenario name to exactly six fields:
//!
//! ```json
//! "scenario": { "mean_ns": 512.3, "p50_ns": 490.0, "p99_ns": 1180.0,
//!               "p999_ns": 2310.0, "iters": 2000, "seed": 42 }
//! ```
//!
//! The parser is strict: a missing field, an unknown field, or an
//! `iters`/`seed` that is not an exact `u64` is an error.
//!
//! Everything is hand-rolled (the workspace is offline, no serde); names
//! are plain identifiers so no escaping is needed.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One trajectory row, both what [`render_json`] writes and what
/// [`parse_trajectory`] returns.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Stable scenario identifier (the JSON key).
    pub name: String,
    /// Mean nanoseconds per sample (exact, not bucket-resolved —
    /// computed from the summed total).
    pub mean_ns: f64,
    /// Median per-sample nanoseconds (histogram-resolved, ~1.6 %).
    pub p50_ns: f64,
    /// 99th-percentile per-sample nanoseconds.
    pub p99_ns: f64,
    /// 99.9th-percentile per-sample nanoseconds.
    pub p999_ns: f64,
    /// Samples measured.
    pub iters: u64,
    /// Seed the run was configured with.
    pub seed: u64,
}

/// Serializes a matrix run as the trajectory document, rows in the given
/// order. Latencies are written with `{:.1}`: sub-0.1 ns resolution is
/// below bucket resolution.
pub fn render_json(rows: &[Row]) -> String {
    let mut out = String::from("{\n");
    for (i, r) in rows.iter().enumerate() {
        let comma = if i + 1 == rows.len() { "" } else { "," };
        let _ = writeln!(
            out,
            "  \"{}\": {{ \"mean_ns\": {:.1}, \"p50_ns\": {:.1}, \"p99_ns\": {:.1}, \
             \"p999_ns\": {:.1}, \"iters\": {}, \"seed\": {} }}{}",
            r.name, r.mean_ns, r.p50_ns, r.p99_ns, r.p999_ns, r.iters, r.seed, comma
        );
    }
    out.push_str("}\n");
    out
}

/// Parses a trajectory document into its rows, in document order.
///
/// Accepts one outer JSON object whose values are flat objects of numeric
/// fields, with arbitrary whitespace.
///
/// # Errors
///
/// Malformed JSON, non-flat values, duplicate scenario names or fields, a
/// row missing one of the six fields or carrying any other, or an
/// `iters`/`seed` that is not an unsigned integer fitting a `u64`.
pub fn parse_trajectory(json: &str) -> Result<Vec<Row>, String> {
    let mut p = Parser {
        bytes: json.as_bytes(),
        pos: 0,
    };
    let mut rows: Vec<Row> = Vec::new();
    p.expect(b'{')?;
    if !p.peek_is(b'}') {
        loop {
            let name = p.string()?;
            p.expect(b':')?;
            if rows.iter().any(|r| r.name == name) {
                return Err(format!("duplicate scenario {name:?}"));
            }
            let mut fields = p.flat_object()?;
            let mut take = |key: &str| {
                fields
                    .remove(key)
                    .ok_or_else(|| format!("scenario {name:?} has no {key:?} field"))
            };
            let (mean, p50, p99, p999, iters, seed) = (
                take("mean_ns")?,
                take("p50_ns")?,
                take("p99_ns")?,
                take("p999_ns")?,
                take("iters")?,
                take("seed")?,
            );
            if let Some(extra) = fields.keys().next() {
                return Err(format!("scenario {name:?} has unknown field {extra:?}"));
            }
            let int = |key: &str, tok: &str| {
                tok.parse::<u64>()
                    .map_err(|_| format!("scenario {name:?}: {key} {tok} is not a u64"))
            };
            rows.push(Row {
                mean_ns: mean.parse().expect("validated by Parser::number"),
                p50_ns: p50.parse().expect("validated by Parser::number"),
                p99_ns: p99.parse().expect("validated by Parser::number"),
                p999_ns: p999.parse().expect("validated by Parser::number"),
                iters: int("iters", iters)?,
                seed: int("seed", seed)?,
                name,
            });
            if !p.eat(b',') {
                break;
            }
        }
    }
    p.expect(b'}')?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing content at byte {}", p.pos));
    }
    Ok(rows)
}

/// Validates that `json` is one syntactically well-formed JSON value
/// (objects, arrays, strings without escapes, finite numbers, booleans,
/// null) with nothing trailing. This is the check the `stats --json`
/// snapshot test runs over the nested Prometheus-shaped document, which
/// is deeper than the flat trajectory schema [`parse_trajectory`] admits.
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

/// Minimal recursive-descent parser for the schemas above (the workspace
/// is offline — no serde).
struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
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

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let start = self.pos;
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b'"' {
                let s =
                    std::str::from_utf8(&self.bytes[start..self.pos]).map_err(|e| e.to_string())?;
                if s.contains('\\') {
                    return Err("escape sequences are not part of the schema".into());
                }
                self.pos += 1;
                return Ok(s.to_owned());
            }
            self.pos += 1;
        }
        Err("unterminated string".into())
    }

    /// One number, returned as its source token once it parses as an
    /// `f64` (callers wanting an integer re-parse the token exactly).
    fn number(&mut self) -> Result<&'a str, String> {
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
            .ok_or_else(|| format!("expected a number at byte {start}"))
    }

    /// `{ "key": number, ... }` with no nesting and no repeated key — the
    /// per-scenario value shape.
    fn flat_object(&mut self) -> Result<BTreeMap<String, &'a str>, String> {
        let mut fields = BTreeMap::new();
        self.expect(b'{')?;
        if !self.peek_is(b'}') {
            loop {
                let key = self.string()?;
                self.expect(b':')?;
                if fields.insert(key.clone(), self.number()?).is_some() {
                    return Err(format!("duplicate field {key:?}"));
                }
                if !self.eat(b',') {
                    break;
                }
            }
        }
        self.expect(b'}')?;
        Ok(fields)
    }

    /// One arbitrary JSON value, recursively (for [`validate_json`]).
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
            Some(b'"') => self.string().map(|_| ()),
            Some(b't') => self.keyword("true"),
            Some(b'f') => self.keyword("false"),
            Some(b'n') => self.keyword("null"),
            _ => self.number().map(|_| ()),
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

    fn row(name: &str, mean_ns: f64) -> Row {
        Row {
            name: name.to_owned(),
            mean_ns,
            p50_ns: mean_ns * 0.5,
            p99_ns: mean_ns * 2.0,
            p999_ns: mean_ns * 4.0,
            iters: 10,
            seed: 42,
        }
    }

    #[test]
    fn render_parse_roundtrip_loses_nothing() {
        let mut extreme = row("c_bench", 2.0);
        extreme.iters = u64::MAX;
        extreme.seed = u64::MAX;
        let rows = vec![row("b_bench", 123.4), row("a_bench", 5.0), extreme];
        // Exact equality, document order kept (not sorted by name), and
        // `u64::MAX` survives: the integers never pass through an f64.
        assert_eq!(parse_trajectory(&render_json(&rows)).unwrap(), rows);
    }

    #[test]
    fn parse_rejects_malformed_documents() {
        let full = r#""mean_ns": 1, "p50_ns": 1, "p99_ns": 1, "p999_ns": 1"#;
        let doc = |fields: &str| format!("{{ \"x\": {{ {fields} }} }}");
        let ok = doc(&format!(r#"{full}, "iters": 3, "seed": 9007199254740993"#));
        assert_eq!(
            parse_trajectory(&ok).unwrap()[0].seed,
            9_007_199_254_740_993
        );

        assert!(parse_trajectory("").is_err());
        assert!(parse_trajectory("[]").is_err());
        for bad in [
            // A row missing any of the six keys.
            doc(r#""mean_ns": 1"#),
            doc(&format!(r#"{full}, "iters": 3"#)),
            doc(r#""p50_ns": 1, "p99_ns": 1, "p999_ns": 1, "iters": 3, "seed": 4"#),
            // Any other key, or a repeated one.
            doc(&format!(r#"{full}, "iters": 3, "seed": 4, "frobs": 9"#)),
            doc(&format!(r#"{full}, "iters": 3, "seed": 4, "seed": 4"#)),
            // iters/seed must be exact u64s.
            doc(&format!(r#"{full}, "iters": 3.5, "seed": 4"#)),
            doc(&format!(r#"{full}, "iters": -3, "seed": 4"#)),
            doc(&format!(r#"{full}, "iters": 3, "seed": 1e3"#)),
            doc(&format!(r#"{full}, "iters": 3, "seed": 18446744073709551616"#)),
            // Trailing content and duplicate scenarios.
            format!("{ok} trailing"),
            format!("{{ \"x\": {{ {full}, \"iters\": 3, \"seed\": 4 }}, \"x\": {{ {full}, \"iters\": 3, \"seed\": 4 }} }}"),
        ] {
            assert!(parse_trajectory(&bad).is_err(), "accepted {bad}");
        }
    }

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
