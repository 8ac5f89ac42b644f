//! Per-experiment metrics export: a schema-versioned JSON report next to
//! the text report, for BENCH_*.json-style trend tracking.
//!
//! # Schema `tc-metrics-v1`
//!
//! ```json
//! {
//!   "schema": "tc-metrics-v1",
//!   "experiment": "pingpong",
//!   "scale": "quick",
//!   "sim": {
//!     "simulated_ps": 123456,
//!     "counters":   { "gpu0.instructions": 42, ... },
//!     "histograms": { "pcie0.dma_read_ps": { "count": 3, "sum": 9,
//!                      "max": 5, "p50": 3, "p95": 5, "p99": 5,
//!                      "p999": 5 }, ... },
//!     "gauges":     { "extoll0.wr_queue_depth": { "current": 0,
//!                      "high_water": 2 }, ... }
//!   },
//!   "runner": { "jobs": 4, "tasks": 36, "wall_ns": 1, "busy_ns": 1,
//!               "queue_wait_ns": 0, "max_task_ns": 1, "utilization": 0.93,
//!               "polls": 1200, "ffwd_steps": 800 }
//! }
//! ```
//!
//! The `sim` section is a function of the deterministic simulation only —
//! byte-identical across runs and across `--jobs` widths. The `runner`
//! section is the pool's self-profile of the whole invocation: host
//! wall-clock, which varies run to run (trend tooling should treat it as
//! advisory), then the experiment's own executor work — process polls and
//! fast-forwarded spin steps summed over its tasks — which is
//! deterministic.
//!
//! [`validate`] re-parses an emitted report with a minimal hand-rolled
//! JSON reader (the workspace is zero-external-crate) and checks the
//! schema strictly: unknown top-level/section keys and missing required
//! keys are errors. `scripts/verify.sh` runs this as a self-check on a
//! freshly emitted file.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use tc_trace::Snapshot;

use crate::pool::PoolStats;

/// The schema identifier this module emits and validates.
pub const SCHEMA: &str = "tc-metrics-v1";

/// Render the metrics report for one experiment.
///
/// `snapshot` is the experiment's registry view (counters, histograms,
/// gauges), `simulated_ps` the simulated duration of the representative
/// scenario, and `pool` the runner self-profile of the whole invocation
/// (whose tasks labelled `experiment[i]` give the executor work).
pub fn render(
    experiment: &str,
    scale: &str,
    snapshot: &Snapshot,
    simulated_ps: u64,
    pool: &PoolStats,
) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    let _ = writeln!(out, "  \"schema\": {},", quote(SCHEMA));
    let _ = writeln!(out, "  \"experiment\": {},", quote(experiment));
    let _ = writeln!(out, "  \"scale\": {},", quote(scale));
    out.push_str("  \"sim\": {\n");
    let _ = writeln!(out, "    \"simulated_ps\": {simulated_ps},");

    // Counters: the BTreeMap iteration order makes the layout stable.
    let counters: Vec<String> = snapshot
        .iter()
        .map(|(name, v)| format!("      {}: {v}", quote(name)))
        .collect();
    let _ = writeln!(
        out,
        "    \"counters\": {{\n{}\n    }},",
        counters.join(",\n")
    );

    let hists: Vec<String> = snapshot
        .histograms()
        .map(|(name, h)| {
            format!(
                "      {}: {{ \"count\": {}, \"sum\": {}, \"max\": {}, \
                 \"p50\": {}, \"p95\": {}, \"p99\": {}, \"p999\": {} }}",
                quote(name),
                h.count,
                h.sum,
                h.max,
                h.p50(),
                h.p95(),
                h.p99(),
                h.p999()
            )
        })
        .collect();
    let _ = writeln!(
        out,
        "    \"histograms\": {{\n{}\n    }},",
        hists.join(",\n")
    );

    let gauges: Vec<String> = snapshot
        .gauges()
        .map(|(name, g)| {
            format!(
                "      {}: {{ \"current\": {}, \"high_water\": {} }}",
                quote(name),
                g.current,
                g.high_water
            )
        })
        .collect();
    let _ = writeln!(out, "    \"gauges\": {{\n{}\n    }}", gauges.join(",\n"));
    out.push_str("  },\n");

    out.push_str("  \"runner\": {\n");
    let _ = writeln!(out, "    \"jobs\": {},", pool.jobs);
    let _ = writeln!(out, "    \"tasks\": {},", pool.tasks);
    let _ = writeln!(out, "    \"wall_ns\": {},", pool.wall_ns);
    let _ = writeln!(out, "    \"busy_ns\": {},", pool.busy_ns);
    let _ = writeln!(out, "    \"queue_wait_ns\": {},", pool.queue_wait_ns);
    let _ = writeln!(out, "    \"max_task_ns\": {},", pool.max_task_ns);
    let _ = writeln!(out, "    \"utilization\": {:.4},", pool.utilization());
    let work = pool.work_of(experiment);
    let _ = writeln!(out, "    \"polls\": {},", work.polls);
    let _ = writeln!(out, "    \"ffwd_steps\": {}", work.skipped);
    out.push_str("  }\n}\n");
    out
}

fn quote(s: &str) -> String {
    let mut q = String::with_capacity(s.len() + 2);
    q.push('"');
    for c in s.chars() {
        match c {
            '"' => q.push_str("\\\""),
            '\\' => q.push_str("\\\\"),
            '\n' => q.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(q, "\\u{:04x}", c as u32);
            }
            c => q.push(c),
        }
    }
    q.push('"');
    q
}

// ---------------------------------------------------------------------------
// Minimal JSON reader + strict schema validation (no external crates).

/// A parsed JSON value — just enough of the grammar for metrics reports.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number (floats and integers alike).
    Num(f64),
    /// A string (escape sequences decoded).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; a sorted map, which is fine for validation.
    Obj(BTreeMap<String, Json>),
}

impl Json {
    fn type_name(&self) -> &'static str {
        match self {
            Json::Null => "null",
            Json::Bool(_) => "bool",
            Json::Num(_) => "number",
            Json::Str(_) => "string",
            Json::Arr(_) => "array",
            Json::Obj(_) => "object",
        }
    }
}

struct Parser<'a> {
    b: &'a [u8],
    i: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: &str) -> String {
        format!("JSON parse error at byte {}: {msg}", self.i)
    }

    fn ws(&mut self) {
        while self.i < self.b.len() && self.b[self.i].is_ascii_whitespace() {
            self.i += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.b.get(self.i).copied()
    }

    fn eat(&mut self, c: u8) -> Result<(), String> {
        if self.peek() == Some(c) {
            self.i += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected {:?}", c as char)))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.ws();
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.lit("true", Json::Bool(true)),
            Some(b'f') => self.lit("false", Json::Bool(false)),
            Some(b'n') => self.lit("null", Json::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(c) => Err(self.err(&format!("unexpected {:?}", c as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn lit(&mut self, word: &str, v: Json) -> Result<Json, String> {
        if self.b[self.i..].starts_with(word.as_bytes()) {
            self.i += word.len();
            Ok(v)
        } else {
            Err(self.err(&format!("expected {word}")))
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.i;
        if self.peek() == Some(b'-') {
            self.i += 1;
        }
        while let Some(c) = self.peek() {
            if c.is_ascii_digit() || matches!(c, b'.' | b'e' | b'E' | b'+' | b'-') {
                self.i += 1;
            } else {
                break;
            }
        }
        std::str::from_utf8(&self.b[start..self.i])
            .ok()
            .and_then(|s| s.parse::<f64>().ok())
            .map(Json::Num)
            .ok_or_else(|| self.err("malformed number"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut s = String::new();
        loop {
            match self.peek() {
                Some(b'"') => {
                    self.i += 1;
                    return Ok(s);
                }
                Some(b'\\') => {
                    self.i += 1;
                    match self.peek() {
                        Some(b'"') => s.push('"'),
                        Some(b'\\') => s.push('\\'),
                        Some(b'/') => s.push('/'),
                        Some(b'n') => s.push('\n'),
                        Some(b't') => s.push('\t'),
                        Some(b'r') => s.push('\r'),
                        Some(b'u') => {
                            let hex = self
                                .b
                                .get(self.i + 1..self.i + 5)
                                .ok_or_else(|| self.err("truncated \\u escape"))?;
                            let cp = std::str::from_utf8(hex)
                                .ok()
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| self.err("bad \\u escape"))?;
                            s.push(char::from_u32(cp).unwrap_or('\u{FFFD}'));
                            self.i += 4;
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                    self.i += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar.
                    let rest = std::str::from_utf8(&self.b[self.i..])
                        .map_err(|_| self.err("invalid UTF-8"))?;
                    let c = rest.chars().next().unwrap();
                    s.push(c);
                    self.i += c.len_utf8();
                }
                None => return Err(self.err("unterminated string")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.eat(b'{')?;
        let mut map = BTreeMap::new();
        self.ws();
        if self.peek() == Some(b'}') {
            self.i += 1;
            return Ok(Json::Obj(map));
        }
        loop {
            self.ws();
            let key = self.string()?;
            self.ws();
            self.eat(b':')?;
            let val = self.value()?;
            if map.insert(key.clone(), val).is_some() {
                return Err(self.err(&format!("duplicate key {key:?}")));
            }
            self.ws();
            match self.peek() {
                Some(b',') => self.i += 1,
                Some(b'}') => {
                    self.i += 1;
                    return Ok(Json::Obj(map));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.ws();
        if self.peek() == Some(b']') {
            self.i += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.ws();
            match self.peek() {
                Some(b',') => self.i += 1,
                Some(b']') => {
                    self.i += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }
}

/// Parse a JSON document (strict enough for metrics reports).
pub fn parse_json(text: &str) -> Result<Json, String> {
    let mut p = Parser {
        b: text.as_bytes(),
        i: 0,
    };
    let v = p.value()?;
    p.ws();
    if p.i != p.b.len() {
        return Err(p.err("trailing data after document"));
    }
    Ok(v)
}

fn obj<'a>(v: &'a Json, what: &str) -> Result<&'a BTreeMap<String, Json>, String> {
    match v {
        Json::Obj(m) => Ok(m),
        other => Err(format!(
            "{what} must be an object, got {}",
            other.type_name()
        )),
    }
}

fn num(m: &BTreeMap<String, Json>, key: &str, what: &str) -> Result<f64, String> {
    match m.get(key) {
        Some(Json::Num(n)) => Ok(*n),
        Some(other) => Err(format!(
            "{what}.{key} must be a number, got {}",
            other.type_name()
        )),
        None => Err(format!("{what} is missing required key {key:?}")),
    }
}

fn exact_keys(m: &BTreeMap<String, Json>, want: &[&str], what: &str) -> Result<(), String> {
    for k in want {
        if !m.contains_key(*k) {
            return Err(format!("{what} is missing required key {k:?}"));
        }
    }
    for k in m.keys() {
        if !want.contains(&k.as_str()) {
            return Err(format!("{what} has unknown key {k:?}"));
        }
    }
    Ok(())
}

/// Validate a metrics report against schema `tc-metrics-v1`: strict key
/// sets at every level (unknown or missing keys fail) and type checks on
/// every leaf.
pub fn validate(text: &str) -> Result<(), String> {
    let doc = parse_json(text)?;
    let top = obj(&doc, "document")?;
    exact_keys(
        top,
        &["schema", "experiment", "scale", "sim", "runner"],
        "document",
    )?;
    match top.get("schema") {
        Some(Json::Str(s)) if s == SCHEMA => {}
        Some(Json::Str(s)) => return Err(format!("unsupported schema {s:?}, expected {SCHEMA:?}")),
        _ => return Err("schema must be a string".to_string()),
    }
    for key in ["experiment", "scale"] {
        if !matches!(top.get(key), Some(Json::Str(_))) {
            return Err(format!("{key} must be a string"));
        }
    }

    let sim = obj(&top["sim"], "sim")?;
    exact_keys(
        sim,
        &["simulated_ps", "counters", "histograms", "gauges"],
        "sim",
    )?;
    num(sim, "simulated_ps", "sim")?;
    for (name, v) in obj(&sim["counters"], "sim.counters")? {
        if !matches!(v, Json::Num(_)) {
            return Err(format!("counter {name:?} must be a number"));
        }
    }
    for (name, v) in obj(&sim["histograms"], "sim.histograms")? {
        let h = obj(v, &format!("histogram {name:?}"))?;
        exact_keys(
            h,
            &["count", "sum", "max", "p50", "p95", "p99", "p999"],
            &format!("histogram {name:?}"),
        )?;
        for k in ["count", "sum", "max", "p50", "p95", "p99", "p999"] {
            num(h, k, &format!("histogram {name:?}"))?;
        }
    }
    for (name, v) in obj(&sim["gauges"], "sim.gauges")? {
        let g = obj(v, &format!("gauge {name:?}"))?;
        exact_keys(g, &["current", "high_water"], &format!("gauge {name:?}"))?;
        for k in ["current", "high_water"] {
            num(g, k, &format!("gauge {name:?}"))?;
        }
    }

    let runner = obj(&top["runner"], "runner")?;
    exact_keys(
        runner,
        &[
            "jobs",
            "tasks",
            "wall_ns",
            "busy_ns",
            "queue_wait_ns",
            "max_task_ns",
            "utilization",
            "polls",
            "ffwd_steps",
        ],
        "runner",
    )?;
    for k in [
        "jobs",
        "tasks",
        "wall_ns",
        "busy_ns",
        "queue_wait_ns",
        "max_task_ns",
        "utilization",
        "polls",
        "ffwd_steps",
    ] {
        num(runner, k, "runner")?;
    }
    Ok(())
}

/// Validate a telemetry time-series document against schema
/// `tc-timeseries-v1` (emitted by [`tc_trace::series::SeriesSet::to_json`]):
/// strict top-level key set, a positive sampling window, and per-series
/// type checks — every point must be a `[ts, value]` pair of non-negative
/// numbers with strictly increasing timestamps.
pub fn validate_timeseries(text: &str) -> Result<(), String> {
    let doc = parse_json(text)?;
    let top = obj(&doc, "document")?;
    exact_keys(
        top,
        &["schema", "experiment", "window_ps", "series"],
        "document",
    )?;
    match top.get("schema") {
        Some(Json::Str(s)) if s == tc_trace::series::SCHEMA => {}
        Some(Json::Str(s)) => {
            return Err(format!(
                "unsupported schema {s:?}, expected {:?}",
                tc_trace::series::SCHEMA
            ))
        }
        _ => return Err("schema must be a string".to_string()),
    }
    if !matches!(top.get("experiment"), Some(Json::Str(_))) {
        return Err("experiment must be a string".to_string());
    }
    let window = num(top, "window_ps", "document")?;
    if window <= 0.0 {
        return Err("window_ps must be positive".to_string());
    }
    for (name, v) in obj(&top["series"], "series")? {
        let s = obj(v, &format!("series {name:?}"))?;
        exact_keys(s, &["unit", "points"], &format!("series {name:?}"))?;
        if !matches!(s.get("unit"), Some(Json::Str(_))) {
            return Err(format!("series {name:?} unit must be a string"));
        }
        let Some(Json::Arr(points)) = s.get("points") else {
            return Err(format!("series {name:?} points must be an array"));
        };
        let mut prev_ts: Option<f64> = None;
        for (i, p) in points.iter().enumerate() {
            let Json::Arr(pair) = p else {
                return Err(format!("series {name:?} point {i} must be an array"));
            };
            let [Json::Num(ts), Json::Num(value)] = pair.as_slice() else {
                return Err(format!(
                    "series {name:?} point {i} must be a [ts, value] number pair"
                ));
            };
            if *ts < 0.0 || *value < 0.0 {
                return Err(format!("series {name:?} point {i} must be non-negative"));
            }
            if prev_ts.is_some_and(|prev| *ts <= prev) {
                return Err(format!("series {name:?} point {i} timestamp must increase"));
            }
            prev_ts = Some(*ts);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_snapshot() -> Snapshot {
        let reg = tc_trace::Registry::new();
        reg.counter("gpu0.instructions").add(42);
        reg.counter("cpu0.loads").add(7);
        let h = reg.histogram("pcie0.dma_read_ps");
        h.record(100);
        h.record(900);
        reg.gauge("extoll0.wr_queue_depth").add(3);
        reg.gauge("extoll0.wr_queue_depth").sub(3);
        reg.snapshot()
    }

    fn sample_pool() -> PoolStats {
        PoolStats {
            jobs: 4,
            tasks: 9,
            wall_ns: 1_000_000,
            busy_ns: 3_600_000,
            queue_wait_ns: 40_000,
            max_task_ns: 700_000,
            task_labels: ["pingpong[0]", "pingpong[1]", "pingpong2[0]"]
                .map(String::from)
                .to_vec(),
            task_work: [(10, 3), (20, 4), (500, 600)]
                .map(|(polls, skipped)| tc_desim::Work { polls, skipped })
                .to_vec(),
            ..Default::default()
        }
    }

    #[test]
    fn rendered_report_validates() {
        let json = render(
            "pingpong",
            "quick",
            &sample_snapshot(),
            12345,
            &sample_pool(),
        );
        validate(&json).unwrap();
        assert!(json.contains("\"tc-metrics-v1\""));
        assert!(json.contains("\"gpu0.instructions\": 42"));
        assert!(json.contains("\"high_water\": 3"));
        assert!(json.contains("\"utilization\": 0.9000"));
        // The experiment's own tasks only.
        assert!(
            json.contains("\"polls\": 30,\n    \"ffwd_steps\": 7\n"),
            "{json}"
        );
    }

    #[test]
    fn rendering_is_deterministic_for_equal_inputs() {
        let a = render("x", "quick", &sample_snapshot(), 5, &sample_pool());
        let b = render("x", "quick", &sample_snapshot(), 5, &sample_pool());
        assert_eq!(a, b);
    }

    #[test]
    fn unknown_key_is_rejected() {
        let mut json = render("x", "quick", &sample_snapshot(), 5, &sample_pool());
        json = json.replacen("\"scale\"", "\"scales\"", 1);
        let e = validate(&json).unwrap_err();
        assert!(e.contains("scales") || e.contains("scale"), "{e}");
    }

    #[test]
    fn missing_runner_key_is_rejected() {
        let json = render("x", "quick", &sample_snapshot(), 5, &sample_pool());
        let json = json.replacen("    \"tasks\": 9,\n", "", 1);
        let e = validate(&json).unwrap_err();
        assert!(e.contains("tasks"), "{e}");
    }

    #[test]
    fn wrong_schema_id_is_rejected() {
        let json = render("x", "quick", &sample_snapshot(), 5, &sample_pool());
        let json = json.replacen(SCHEMA, "tc-metrics-v0", 1);
        assert!(validate(&json).unwrap_err().contains("tc-metrics-v0"));
    }

    fn sample_timeseries() -> String {
        let mut set = tc_trace::series::SeriesSet::new(25_000_000);
        set.push("workload0.queue_depth", "ops", 25_000_000, 3);
        set.push("workload0.queue_depth", "ops", 50_000_000, 1);
        set.push("workload.achieved_kops", "kop/s", 25_000_000, 180);
        set.to_json("workload")
    }

    #[test]
    fn emitted_timeseries_validates() {
        let json = sample_timeseries();
        validate_timeseries(&json).unwrap();
        assert!(json.contains(tc_trace::series::SCHEMA));
    }

    #[test]
    fn timeseries_schema_violations_are_rejected() {
        let json = sample_timeseries();
        // Wrong schema id.
        let bad = json.replacen(tc_trace::series::SCHEMA, "tc-timeseries-v0", 1);
        assert!(validate_timeseries(&bad)
            .unwrap_err()
            .contains("tc-timeseries-v0"));
        // Unknown top-level key.
        let bad = json.replacen("\"window_ps\"", "\"window\"", 1);
        assert!(validate_timeseries(&bad).is_err());
        // Non-increasing timestamps.
        let bad = json.replacen("[50000000,1]", "[25000000,1]", 1);
        assert!(validate_timeseries(&bad)
            .unwrap_err()
            .contains("timestamp must increase"));
        // A point that is not a pair.
        let bad = json.replacen("[50000000,1]", "[50000000,1,2]", 1);
        assert!(validate_timeseries(&bad).is_err());
    }

    #[test]
    fn parser_handles_the_grammar() {
        let v = parse_json(r#"{"a": [1, -2.5, "x\n", true, null], "b": {}}"#).unwrap();
        let Json::Obj(m) = v else { panic!() };
        assert_eq!(
            m["a"],
            Json::Arr(vec![
                Json::Num(1.0),
                Json::Num(-2.5),
                Json::Str("x\n".into()),
                Json::Bool(true),
                Json::Null
            ])
        );
        assert!(parse_json("{\"a\": 1,}").is_err());
        assert!(parse_json("{\"a\": 1} x").is_err());
        assert!(parse_json("{\"a\": 1, \"a\": 2}").is_err());
    }
}
