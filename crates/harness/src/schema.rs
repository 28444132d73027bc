//! The trajectory-file schema (`SCENARIOS_pioman.json`), owned in one
//! place: [`BenchResult`] is the emit-side record, [`render_json`] writes
//! it, [`BaselineEntry`] is the parse-side record, [`parse_trajectory`]
//! reads it, and the round-trip tests below pin that `parse(render(x))`
//! loses nothing — emit and parse cannot drift.
//!
//! # Schema v2
//!
//! Version 1 recorded one number per scenario (`name → {mean_ns, iters,
//! seed}`). Version 2 records the *distribution* the paper's
//! responsiveness argument actually lives in:
//!
//! ```json
//! "scenario": { "mean_ns": 512.3, "p50_ns": 490, "p99_ns": 1180,
//!               "p999_ns": 2310, "iters": 2000, "seed": 42 }
//! ```
//!
//! There is no explicit version field — the percentile keys *are* the
//! version marker. [`parse_trajectory`] accepts both generations:
//! percentiles come back as `Option`s, `None` meaning a v1 file, and the
//! compare gate falls back to mean-only gating for such rows (warning,
//! not failing — a hand-written or old baseline must stay comparable).
//! Unknown extra numeric fields are ignored on parse, so the schema can
//! grow again without breaking older binaries' gates.
//!
//! Everything is hand-rolled (the workspace is offline, no serde); names
//! are plain identifiers so no escaping is needed.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One trajectory row: the unit of the schema
/// (v2: `name → {mean_ns, p50_ns, p99_ns, p999_ns, iters, seed}`).
#[derive(Debug, Clone)]
pub struct BenchResult {
    /// Stable scenario identifier (the JSON key).
    pub name: &'static str,
    /// Mean nanoseconds per sample (exact, not bucket-resolved —
    /// computed from the summed total).
    pub mean_ns: f64,
    /// Median per-sample nanoseconds (histogram-resolved, ~3%).
    pub p50_ns: f64,
    /// 99th-percentile per-sample nanoseconds.
    pub p99_ns: f64,
    /// 99.9th-percentile per-sample nanoseconds (recorded for the
    /// trajectory; not gated — see `compare`).
    pub p999_ns: f64,
    /// Samples measured.
    pub iters: u64,
    /// Seed the run was configured with.
    pub seed: u64,
}

/// One parsed baseline scenario. `mean_ns` is mandatory in every schema
/// generation; the percentiles are `None` when the file predates v2.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BaselineEntry {
    /// Mean nanoseconds per sample.
    pub mean_ns: f64,
    /// Median, if the file carries v2 percentiles.
    pub p50_ns: Option<f64>,
    /// 99th percentile, if present (the gated tail).
    pub p99_ns: Option<f64>,
    /// 99.9th percentile, if present.
    pub p999_ns: Option<f64>,
}

impl BaselineEntry {
    /// A v2 entry (all percentiles present).
    pub fn v2(mean_ns: f64, p50_ns: f64, p99_ns: f64, p999_ns: f64) -> Self {
        BaselineEntry {
            mean_ns,
            p50_ns: Some(p50_ns),
            p99_ns: Some(p99_ns),
            p999_ns: Some(p999_ns),
        }
    }

    /// A v1 entry (mean only).
    pub fn v1(mean_ns: f64) -> Self {
        BaselineEntry {
            mean_ns,
            p50_ns: None,
            p99_ns: None,
            p999_ns: None,
        }
    }

    /// `true` when this row predates schema v2 (no percentile fields) —
    /// the compare gate then falls back to mean-only for it.
    pub fn is_v1(&self) -> bool {
        self.p99_ns.is_none()
    }
}

/// Serializes a matrix run as the trajectory document (schema v2).
/// Percentiles are written with `{:.1}` like the mean: sub-0.1 ns
/// resolution is below bucket resolution.
pub fn render_json(results: &[BenchResult]) -> String {
    let mut out = String::from("{\n");
    for (i, r) in results.iter().enumerate() {
        let comma = if i + 1 == results.len() { "" } else { "," };
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

/// Parses a trajectory document of either schema generation into
/// `name → `[`BaselineEntry`].
///
/// Accepts one outer JSON object whose values are flat objects of numeric
/// fields, with arbitrary whitespace — the shape every [`render_json`]
/// since v1 emits, so hand-edited and historical baselines still parse.
/// Rejects anything else with a description of where parsing stopped:
/// silently comparing against garbage would make the gate lie.
///
/// # Errors
///
/// Malformed JSON, non-flat values, duplicate scenario names, or a
/// scenario without `mean_ns`.
pub fn parse_trajectory(json: &str) -> Result<BTreeMap<String, BaselineEntry>, String> {
    let mut p = Parser {
        bytes: json.as_bytes(),
        pos: 0,
    };
    let mut map = BTreeMap::new();
    p.expect(b'{')?;
    if !p.peek_is(b'}') {
        loop {
            let name = p.string()?;
            p.expect(b':')?;
            let fields = p.flat_object()?;
            let mean_ns = *fields
                .get("mean_ns")
                .ok_or_else(|| format!("scenario {name:?} has no mean_ns field"))?;
            let entry = BaselineEntry {
                mean_ns,
                p50_ns: fields.get("p50_ns").copied(),
                p99_ns: fields.get("p99_ns").copied(),
                p999_ns: fields.get("p999_ns").copied(),
            };
            if map.insert(name.clone(), entry).is_some() {
                return Err(format!("duplicate scenario {name:?}"));
            }
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
    Ok(map)
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

    fn number(&mut self) -> Result<f64, String> {
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
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| format!("expected a number at byte {start}"))
    }

    /// `{ "key": number, ... }` with no nesting — the per-scenario value
    /// shape of every trajectory schema generation.
    fn flat_object(&mut self) -> Result<BTreeMap<String, f64>, String> {
        let mut fields = BTreeMap::new();
        self.expect(b'{')?;
        if !self.peek_is(b'}') {
            loop {
                let key = self.string()?;
                self.expect(b':')?;
                fields.insert(key, self.number()?);
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

    fn result(name: &'static str, mean_ns: f64) -> BenchResult {
        BenchResult {
            name,
            mean_ns,
            p50_ns: mean_ns * 0.9,
            p99_ns: mean_ns * 2.0,
            p999_ns: mean_ns * 4.0,
            iters: 10,
            seed: 42,
        }
    }

    #[test]
    fn render_parse_roundtrip_loses_nothing() {
        let results = [result("a_bench", 123.4), result("b_bench", 5.0)];
        let parsed = parse_trajectory(&render_json(&results)).unwrap();
        assert_eq!(parsed.len(), 2);
        for r in &results {
            let e = parsed[r.name];
            assert!((e.mean_ns - r.mean_ns).abs() < 0.05, "mean survives");
            assert!((e.p50_ns.unwrap() - r.p50_ns).abs() < 0.05);
            assert!((e.p99_ns.unwrap() - r.p99_ns).abs() < 0.05);
            assert!((e.p999_ns.unwrap() - r.p999_ns).abs() < 0.05);
            assert!(!e.is_v1());
        }
    }

    #[test]
    fn v1_documents_still_parse_as_mean_only() {
        // The percentile-less shape hand-written baselines use
        // (`tests/scenarios_cli.rs`).
        let json = r#"{
  "rpc_mesh_steady": { "mean_ns": 639.0, "iters": 2000, "seed": 42 },
  "retry_storm": { "mean_ns": 1886199.8, "iters": 200, "seed": 42 }
}"#;
        let parsed = parse_trajectory(json).unwrap();
        let e = parsed["rpc_mesh_steady"];
        assert!((e.mean_ns - 639.0).abs() < 1e-9);
        assert!(e.is_v1() && e.p50_ns.is_none() && e.p999_ns.is_none());
    }

    #[test]
    fn unknown_numeric_fields_are_ignored() {
        let json = r#"{ "x": { "mean_ns": 1.0, "p99_ns": 2.0, "frobs": 9 } }"#;
        let e = parse_trajectory(json).unwrap()["x"];
        assert_eq!(e.p99_ns, Some(2.0));
        assert!(!e.is_v1(), "p99 alone is enough to gate the tail");
    }

    #[test]
    fn parse_rejects_malformed_documents() {
        assert!(parse_trajectory("").is_err());
        assert!(parse_trajectory("[]").is_err());
        assert!(
            parse_trajectory(r#"{ "x": { "iters": 3 } }"#).is_err(),
            "no mean_ns"
        );
        assert!(parse_trajectory(r#"{ "x": { "mean_ns": 1 } } trailing"#).is_err());
        assert!(
            parse_trajectory(r#"{ "x": { "mean_ns": 1 }, "x": { "mean_ns": 2 } }"#).is_err(),
            "duplicate keys"
        );
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
