//! `bench-diff` — guard rail for the committed `BENCH_*.json` perf
//! records.
//!
//! The bench binaries emit their JSON by hand (no serde in the tree),
//! so a formatting slip would silently corrupt the perf trajectory the
//! repo tracks commit over commit. CI runs `bench-diff check` over
//! every committed BENCH file and fails the build on malformed JSON or
//! a record missing its required shape. `bench-diff diff old new`
//! additionally reports per-circuit metric movement between two
//! versions of the same bench file (useful in review).
//!
//! ```text
//! bench-diff check BENCH_sweep.json BENCH_service.json
//! bench-diff diff /tmp/old.json BENCH_sweep.json
//! ```

#![forbid(unsafe_code)]
use std::fmt;
use std::process::ExitCode;

/// A parsed JSON value — the subset of shapes the BENCH files use,
/// which is full JSON minus numbers outside `f64`.
#[derive(Debug, Clone, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Number(f64),
    String(String),
    Array(Vec<Json>),
    Object(Vec<(String, Json)>),
}

impl Json {
    fn type_name(&self) -> &'static str {
        match self {
            Json::Null => "null",
            Json::Bool(_) => "bool",
            Json::Number(_) => "number",
            Json::String(_) => "string",
            Json::Array(_) => "array",
            Json::Object(_) => "object",
        }
    }

    fn get<'a>(&'a self, key: &str) -> Option<&'a Json> {
        match self {
            Json::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.type_name())
    }
}

/// Recursive-descent JSON parser (strict: no trailing garbage, no
/// trailing commas, no NaN/Inf — exactly what a well-formed BENCH
/// file may contain).
struct Parser<'a> {
    chars: std::iter::Peekable<std::str::Chars<'a>>,
    /// Nesting guard: BENCH files are ~3 levels deep; anything past
    /// this is corrupt input, not data.
    depth: usize,
}

impl<'a> Parser<'a> {
    const MAX_DEPTH: usize = 32;

    fn new(src: &'a str) -> Self {
        Parser {
            chars: src.chars().peekable(),
            depth: 0,
        }
    }

    fn skip_ws(&mut self) {
        while matches!(self.chars.peek(), Some(' ' | '\t' | '\n' | '\r')) {
            self.chars.next();
        }
    }

    fn expect(&mut self, want: char) -> Result<(), String> {
        match self.chars.next() {
            Some(c) if c == want => Ok(()),
            Some(c) => Err(format!("expected '{want}', found '{c}'")),
            None => Err(format!("expected '{want}', found end of input")),
        }
    }

    fn literal(&mut self, rest: &str, value: Json) -> Result<Json, String> {
        for want in rest.chars() {
            self.expect(want)?;
        }
        Ok(value)
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect('"')?;
        let mut out = String::new();
        loop {
            match self.chars.next() {
                None => return Err("unterminated string".into()),
                Some('"') => return Ok(out),
                Some('\\') => match self.chars.next() {
                    Some('"') => out.push('"'),
                    Some('\\') => out.push('\\'),
                    Some('/') => out.push('/'),
                    Some('n') => out.push('\n'),
                    Some('t') => out.push('\t'),
                    Some('r') => out.push('\r'),
                    Some('b') => out.push('\u{8}'),
                    Some('f') => out.push('\u{c}'),
                    Some('u') => {
                        let mut code = 0u32;
                        for _ in 0..4 {
                            let d = self
                                .chars
                                .next()
                                .and_then(|c| c.to_digit(16))
                                .ok_or("bad \\u escape")?;
                            code = code * 16 + d;
                        }
                        out.push(char::from_u32(code).ok_or("bad \\u code point")?);
                    }
                    other => return Err(format!("bad escape {other:?}")),
                },
                Some(c) => out.push(c),
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let mut text = String::new();
        while matches!(
            self.chars.peek(),
            Some('0'..='9' | '-' | '+' | '.' | 'e' | 'E')
        ) {
            text.push(self.chars.next().expect("peeked"));
        }
        let n: f64 = text.parse().map_err(|_| format!("bad number '{text}'"))?;
        if !n.is_finite() {
            return Err(format!("non-finite number '{text}'"));
        }
        Ok(Json::Number(n))
    }

    fn value(&mut self) -> Result<Json, String> {
        if self.depth >= Self::MAX_DEPTH {
            return Err("nesting too deep".into());
        }
        self.skip_ws();
        match self.chars.peek() {
            None => Err("unexpected end of input".into()),
            Some('"') => Ok(Json::String(self.string()?)),
            Some('t') => self.literal("true", Json::Bool(true)),
            Some('f') => self.literal("false", Json::Bool(false)),
            Some('n') => self.literal("null", Json::Null),
            Some('0'..='9' | '-') => self.number(),
            Some('[') => {
                self.chars.next();
                self.depth += 1;
                let mut items = Vec::new();
                loop {
                    self.skip_ws();
                    if self.chars.peek() == Some(&']') {
                        if !items.is_empty() {
                            return Err("trailing comma in array".into());
                        }
                        self.chars.next();
                        break;
                    }
                    items.push(self.value()?);
                    self.skip_ws();
                    match self.chars.next() {
                        Some(',') => continue,
                        Some(']') => break,
                        other => return Err(format!("expected ',' or ']', found {other:?}")),
                    }
                }
                self.depth -= 1;
                Ok(Json::Array(items))
            }
            Some('{') => {
                self.chars.next();
                self.depth += 1;
                let mut fields: Vec<(String, Json)> = Vec::new();
                loop {
                    self.skip_ws();
                    if self.chars.peek() == Some(&'}') {
                        if !fields.is_empty() {
                            return Err("trailing comma in object".into());
                        }
                        self.chars.next();
                        break;
                    }
                    let key = self.string()?;
                    if fields.iter().any(|(k, _)| *k == key) {
                        return Err(format!("duplicate key \"{key}\""));
                    }
                    self.skip_ws();
                    self.expect(':')?;
                    let value = self.value()?;
                    fields.push((key, value));
                    self.skip_ws();
                    match self.chars.next() {
                        Some(',') => continue,
                        Some('}') => break,
                        other => return Err(format!("expected ',' or '}}', found {other:?}")),
                    }
                }
                self.depth -= 1;
                Ok(Json::Object(fields))
            }
            Some(c) => Err(format!("unexpected character '{c}'")),
        }
    }
}

fn parse(src: &str) -> Result<Json, String> {
    let mut p = Parser::new(src);
    let value = p.value()?;
    p.skip_ws();
    if let Some(c) = p.chars.next() {
        return Err(format!("trailing content after document: '{c}'"));
    }
    Ok(value)
}

/// The shape every committed BENCH file must satisfy: a top-level
/// object with a `"bench"` name string and a non-empty `"results"`
/// array whose entries each name their `"circuit"` and carry at least
/// one numeric metric (directly or in a nested object).
fn validate(doc: &Json) -> Result<(), String> {
    let Json::Object(_) = doc else {
        return Err(format!("top level must be an object, found {doc}"));
    };
    match doc.get("bench") {
        Some(Json::String(name)) if !name.is_empty() => {}
        Some(other) => {
            return Err(format!(
                "\"bench\" must be a non-empty string, found {other}"
            ))
        }
        None => return Err("missing \"bench\" name".into()),
    }
    let results = match doc.get("results") {
        Some(Json::Array(items)) => items,
        Some(other) => return Err(format!("\"results\" must be an array, found {other}")),
        None => return Err("missing \"results\" array".into()),
    };
    if results.is_empty() {
        return Err("\"results\" is empty".into());
    }
    for (i, entry) in results.iter().enumerate() {
        let Json::Object(fields) = entry else {
            return Err(format!("results[{i}] must be an object, found {entry}"));
        };
        match entry.get("circuit") {
            Some(Json::String(name)) if !name.is_empty() => {}
            _ => return Err(format!("results[{i}] is missing its \"circuit\" name")),
        }
        let has_metric = fields.iter().any(|(_, v)| match v {
            Json::Number(_) => true,
            Json::Object(inner) => inner.iter().any(|(_, v)| matches!(v, Json::Number(_))),
            _ => false,
        });
        if !has_metric {
            return Err(format!("results[{i}] carries no numeric metric"));
        }
    }
    // Bench-specific per-result shape: the sweep record tracks the
    // suffix-shared arena footprint, the service record the cold
    // (compile + plan build + sweep) path; losing either silently would
    // erase that perf trajectory.
    let required: &[&str] = match doc.get("bench") {
        Some(Json::String(name)) if name == "sweep_throughput" => &[
            "arena_members",
            "arena_bytes",
            "whatif_resweep_ms",
            "whatif_general_ms",
            "whatif_dirty_site_fraction",
            "whatif_full_recompute_ms",
        ],
        Some(Json::String(name)) if name == "service_throughput" => &["cold_sweep_ms"],
        _ => &[],
    };
    // Both throughput records must name the rule-core backend that
    // produced them, and only the one every build runs: a record
    // carrying another name came from an older kernel and does not
    // describe this one.
    if matches!(doc.get("bench"),
        Some(Json::String(name)) if name == "sweep_throughput" || name == "service_throughput")
    {
        match doc.get("kernel") {
            Some(Json::String(k)) if k == "scalar" => {}
            Some(other) => return Err(format!("\"kernel\" must be \"scalar\", found {other}")),
            None => return Err("missing \"kernel\" backend field".into()),
        }
    }
    for (i, entry) in results.iter().enumerate() {
        for field in required {
            match entry.get(field) {
                Some(Json::Number(_)) => {}
                _ => {
                    return Err(format!(
                        "results[{i}] is missing its numeric \"{field}\" metric"
                    ))
                }
            }
        }
    }
    // The sweep record's folded one-thread row is the daemon's sweep at
    // the kernel layer: its silent loss would drop the fold trajectory.
    if doc.get("bench") == Some(&Json::String("sweep_throughput".into())) {
        for (i, entry) in results.iter().enumerate() {
            match entry.get("folded_1t").and_then(|f| f.get("sites_per_sec")) {
                Some(Json::Number(_)) => {}
                _ => {
                    return Err(format!(
                        "results[{i}] is missing its numeric \"folded_1t\".\"sites_per_sec\" metric"
                    ))
                }
            }
        }
    }
    // Bench-specific shape: the service record carries a TCP round-trip
    // section whose silent loss would drop the wire-cost trajectory.
    if doc.get("bench") == Some(&Json::String("service_throughput".into())) {
        let Some(tcp) = doc.get("tcp") else {
            return Err("service_throughput is missing its \"tcp\" section".into());
        };
        for field in [
            "round_trips_per_sec",
            "p50_us",
            "sweep_round_trip_ms",
            "cancel_latency_ms",
        ] {
            match tcp.get(field) {
                Some(Json::Number(_)) => {}
                _ => {
                    return Err(format!(
                        "\"tcp\" section is missing its numeric \"{field}\" metric"
                    ))
                }
            }
        }
    }
    Ok(())
}

/// Flattens one result entry's numeric metrics as `name` /
/// `outer.name` pairs for the diff report.
fn metrics(entry: &Json) -> Vec<(String, f64)> {
    let Json::Object(fields) = entry else {
        return Vec::new();
    };
    let mut out = Vec::new();
    for (key, value) in fields {
        match value {
            Json::Number(n) => out.push((key.clone(), *n)),
            Json::Object(inner) => {
                for (k, v) in inner {
                    if let Json::Number(n) = v {
                        out.push((format!("{key}.{k}"), *n));
                    }
                }
            }
            _ => {}
        }
    }
    out
}

fn load(path: &str) -> Result<Json, String> {
    let src = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let doc = parse(&src).map_err(|e| format!("{path}: {e}"))?;
    validate(&doc).map_err(|e| format!("{path}: {e}"))?;
    Ok(doc)
}

fn run_check(paths: &[String]) -> Result<(), String> {
    if paths.is_empty() {
        return Err("check: no files given".into());
    }
    for path in paths {
        let doc = load(path)?;
        let results = match doc.get("results") {
            Some(Json::Array(items)) => items.len(),
            _ => unreachable!("validated"),
        };
        println!("{path}: ok ({results} results)");
    }
    Ok(())
}

fn run_diff(old_path: &str, new_path: &str) -> Result<(), String> {
    let old = load(old_path)?;
    let new = load(new_path)?;
    let (Some(Json::Array(old_results)), Some(Json::Array(new_results))) =
        (old.get("results"), new.get("results"))
    else {
        unreachable!("validated");
    };
    for entry in new_results {
        let circuit = match entry.get("circuit") {
            Some(Json::String(name)) => name.clone(),
            _ => unreachable!("validated"),
        };
        let Some(before) = old_results
            .iter()
            .find(|e| e.get("circuit") == Some(&Json::String(circuit.clone())))
        else {
            println!("{circuit}: new circuit (no baseline)");
            continue;
        };
        let old_metrics = metrics(before);
        for (name, after) in metrics(entry) {
            match old_metrics.iter().find(|(n, _)| *n == name) {
                Some((_, b)) if *b != 0.0 => {
                    let delta = (after - b) / b * 100.0;
                    println!("{circuit}: {name} {b:.3} -> {after:.3} ({delta:+.1}%)");
                }
                Some((_, b)) => println!("{circuit}: {name} {b:.3} -> {after:.3}"),
                None => println!("{circuit}: {name} (new metric) = {after:.3}"),
            }
        }
    }
    // Top-level metric sections ("interleave", "tcp", ...) diff like
    // pseudo-circuits keyed by their field name.
    let Json::Object(new_fields) = &new else {
        unreachable!("validated");
    };
    for (key, value) in new_fields {
        if key == "results" || !matches!(value, Json::Object(_)) {
            continue;
        }
        let old_metrics = old.get(key).map(metrics).unwrap_or_default();
        for (name, after) in metrics(value) {
            match old_metrics.iter().find(|(n, _)| *n == name) {
                Some((_, b)) if *b != 0.0 => {
                    let delta = (after - b) / b * 100.0;
                    println!("{key}: {name} {b:.3} -> {after:.3} ({delta:+.1}%)");
                }
                Some((_, b)) => println!("{key}: {name} {b:.3} -> {after:.3}"),
                None => println!("{key}: {name} (new metric) = {after:.3}"),
            }
        }
    }
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.split_first() {
        Some((cmd, rest)) if cmd == "check" => run_check(rest),
        Some((cmd, rest)) if cmd == "diff" => match rest {
            [old, new] => run_diff(old, new),
            _ => Err("diff: expected exactly two files".into()),
        },
        // Bare file arguments behave like `check` (the CI invocation).
        Some(_) => run_check(&args),
        None => Err("usage: bench-diff check <files...> | bench-diff diff <old> <new>".into()),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("bench-diff: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const GOOD: &str = r#"{
      "bench": "sweep_throughput",
      "kernel": "scalar",
      "unit_note": "latencies in microseconds",
      "results": [
        {"circuit": "s953", "nodes": 440, "plan_build_ms": 2.4,
         "arena_members": 9000, "arena_bytes": 120000,
         "whatif_resweep_ms": 1.2, "whatif_general_ms": 1.6,
         "whatif_dirty_site_fraction": 0.41,
         "whatif_full_recompute_ms": 8.5,
         "reference": {"sites_per_sec": 147038.2, "p50_us": 4.4},
         "folded_1t": {"sites_per_sec": 620000.0}}
      ]
    }"#;

    #[test]
    fn accepts_a_well_formed_bench_file() {
        let doc = parse(GOOD).unwrap();
        validate(&doc).unwrap();
        let Json::Array(results) = doc.get("results").unwrap() else {
            panic!("results array");
        };
        let m = metrics(&results[0]);
        assert!(m.contains(&("nodes".into(), 440.0)));
        assert!(m.contains(&("reference.sites_per_sec".into(), 147038.2)));
    }

    #[test]
    fn rejects_malformed_json() {
        for bad in [
            "",
            "{",
            "{\"bench\": }",
            "{\"bench\": \"x\", \"results\": [}",
            "{\"bench\": \"x\"} trailing",
            "{\"bench\": \"x\", \"results\": [1,]}",
            "{\"a\": 1, \"a\": 2}",
            "{\"n\": 1e999}",
        ] {
            assert!(parse(bad).is_err(), "accepted: {bad}");
        }
    }

    #[test]
    fn rejects_wrong_shapes() {
        for bad in [
            "[]",
            "{\"results\": []}",
            "{\"bench\": \"x\"}",
            "{\"bench\": \"x\", \"results\": []}",
            "{\"bench\": \"x\", \"results\": [42]}",
            "{\"bench\": \"x\", \"results\": [{\"nodes\": 1}]}",
            "{\"bench\": \"x\", \"results\": [{\"circuit\": \"c\"}]}",
            "{\"bench\": 7, \"results\": [{\"circuit\": \"c\", \"nodes\": 1}]}",
        ] {
            let Ok(doc) = parse(bad) else { continue };
            assert!(validate(&doc).is_err(), "accepted shape: {bad}");
        }
    }

    #[test]
    fn sweep_record_requires_its_arena_metrics() {
        // The committed sweep record must carry the suffix-shared arena
        // footprint per circuit.
        let doc = parse(
            r#"{"bench": "sweep_throughput", "kernel": "scalar", "results": [{"circuit": "c", "nodes": 1}]}"#,
        )
        .unwrap();
        assert!(validate(&doc).unwrap_err().contains("arena_members"));
        let doc = parse(
            r#"{"bench": "sweep_throughput", "kernel": "scalar", "results": [{"circuit": "c", "arena_members": 5}]}"#,
        )
        .unwrap();
        assert!(validate(&doc).unwrap_err().contains("arena_bytes"));
        // The incremental what-if record rides along: losing it would
        // silently drop the resweep-vs-full trajectory.
        let doc = parse(
            r#"{"bench": "sweep_throughput", "kernel": "scalar", "results": [{"circuit": "c", "arena_members": 5, "arena_bytes": 80}]}"#,
        )
        .unwrap();
        assert!(validate(&doc).unwrap_err().contains("whatif_resweep_ms"));
        // So does the general-path edit (TMR of a gate with fanout).
        let doc = parse(
            r#"{"bench": "sweep_throughput", "kernel": "scalar", "results": [{"circuit": "c", "arena_members": 5, "arena_bytes": 80, "whatif_resweep_ms": 1.0, "whatif_dirty_site_fraction": 0.4, "whatif_full_recompute_ms": 3.0, "folded_1t": {"sites_per_sec": 9.0}}]}"#,
        )
        .unwrap();
        assert!(validate(&doc).unwrap_err().contains("whatif_general_ms"));
        let doc = parse(
            r#"{"bench": "sweep_throughput", "kernel": "scalar", "results": [{"circuit": "c", "arena_members": 5, "arena_bytes": 80, "whatif_resweep_ms": 1.0, "whatif_general_ms": 2.0}]}"#,
        )
        .unwrap();
        assert!(validate(&doc)
            .unwrap_err()
            .contains("whatif_dirty_site_fraction"));
        let doc = parse(
            r#"{"bench": "sweep_throughput", "kernel": "scalar", "results": [{"circuit": "c", "arena_members": 5, "arena_bytes": 80, "whatif_resweep_ms": 1.0, "whatif_general_ms": 2.0, "whatif_dirty_site_fraction": 0.4, "whatif_full_recompute_ms": 3.0, "folded_1t": {"sites_per_sec": 9.0}}]}"#,
        )
        .unwrap();
        validate(&doc).unwrap();
    }

    #[test]
    fn sweep_record_requires_its_folded_row() {
        let base = r#""kernel": "scalar", "results": [{"circuit": "c", "arena_members": 5, "arena_bytes": 80, "whatif_resweep_ms": 1.0, "whatif_general_ms": 2.0, "whatif_dirty_site_fraction": 0.4, "whatif_full_recompute_ms": 3.0"#;
        for bad in [
            "",
            r#", "folded_1t": 9.0"#,
            r#", "folded_1t": {"p50_us": 1.0}"#,
            r#", "folded_1t": {"sites_per_sec": "fast"}"#,
        ] {
            let doc = parse(&format!(
                r#"{{"bench": "sweep_throughput", {base}{bad}}}]}}"#
            ))
            .unwrap();
            assert!(
                validate(&doc).unwrap_err().contains("folded_1t"),
                "accepted: {bad}"
            );
        }
        let doc = parse(&format!(
            r#"{{"bench": "sweep_throughput", {base}, "folded_1t": {{"sites_per_sec": 9.0}}}}]}}"#
        ))
        .unwrap();
        validate(&doc).unwrap();
    }

    #[test]
    fn throughput_records_require_their_kernel_backend() {
        // Missing: rejected, for both throughput bench kinds.
        let doc = parse(
            r#"{"bench": "sweep_throughput", "results": [{"circuit": "c", "arena_members": 5, "arena_bytes": 80}]}"#,
        )
        .unwrap();
        assert!(validate(&doc).unwrap_err().contains("kernel"));
        let doc = parse(
            r#"{"bench": "service_throughput", "results": [{"circuit": "c", "cold_sweep_ms": 1.0}], "tcp": {"round_trips_per_sec": 1.0, "p50_us": 1.0, "sweep_round_trip_ms": 1.0, "cancel_latency_ms": 1.0}}"#,
        )
        .unwrap();
        assert!(validate(&doc).unwrap_err().contains("kernel"));
        // An unknown backend name, or the deleted AVX2 backend's:
        // rejected.
        for kernel in ["sse9", "avx2"] {
            let doc = parse(&format!(
                r#"{{"bench": "sweep_throughput", "kernel": "{kernel}", "results": [{{"circuit": "c", "arena_members": 5, "arena_bytes": 80}}]}}"#
            ))
            .unwrap();
            assert!(validate(&doc).unwrap_err().contains("kernel"), "{kernel}");
        }
        // Other bench names carry no kernel obligation.
        let doc = parse(r#"{"bench": "x", "results": [{"circuit": "c", "nodes": 1}]}"#).unwrap();
        validate(&doc).unwrap();
    }

    #[test]
    fn service_record_requires_its_tcp_section() {
        let base = r#""kernel": "scalar", "results": [{"circuit": "c", "nodes": 1, "cold_sweep_ms": 1.5}]"#;
        // Without the tcp section (or with it incomplete): rejected.
        let doc = parse(&format!(r#"{{"bench": "service_throughput", {base}}}"#)).unwrap();
        assert!(validate(&doc).unwrap_err().contains("tcp"));
        let doc = parse(&format!(
            r#"{{"bench": "service_throughput", {base}, "tcp": {{"round_trips_per_sec": 9000.0}}}}"#
        ))
        .unwrap();
        assert!(validate(&doc).unwrap_err().contains("p50_us"));
        // Cancel latency is part of the contract: its silent loss would
        // drop the cancellation-responsiveness trajectory.
        let doc = parse(&format!(
            r#"{{"bench": "service_throughput", {base}, "tcp": {{"round_trips_per_sec": 9000.0, "p50_us": 110.0, "sweep_round_trip_ms": 2.1}}}}"#
        ))
        .unwrap();
        assert!(validate(&doc).unwrap_err().contains("cancel_latency_ms"));
        // Complete: accepted.
        let doc = parse(&format!(
            r#"{{"bench": "service_throughput", {base}, "tcp": {{"circuit": "c", "round_trips_per_sec": 9000.0, "p50_us": 110.0, "sweep_round_trip_ms": 2.1, "cancel_latency_ms": 0.4}}}}"#
        ))
        .unwrap();
        validate(&doc).unwrap();
        // The cold-sweep metric is mandatory per service result too.
        let doc = parse(
            r#"{"bench": "service_throughput", "kernel": "scalar", "results": [{"circuit": "c", "nodes": 1}], "tcp": {"round_trips_per_sec": 9000.0, "p50_us": 110.0, "sweep_round_trip_ms": 2.1, "cancel_latency_ms": 0.4}}"#,
        )
        .unwrap();
        assert!(validate(&doc).unwrap_err().contains("cold_sweep_ms"));
        // Other bench names carry no such obligation.
        let doc = parse(r#"{"bench": "x", "results": [{"circuit": "c", "nodes": 1}]}"#).unwrap();
        validate(&doc).unwrap();
    }

    #[test]
    fn the_committed_bench_files_validate() {
        // Run from the workspace root by cargo; both records must stay
        // well-formed — this is the same gate CI applies.
        for path in ["../../BENCH_sweep.json", "../../BENCH_service.json"] {
            let src = std::fs::read_to_string(path).expect("committed bench file");
            let doc = parse(&src).unwrap_or_else(|e| panic!("{path}: {e}"));
            validate(&doc).unwrap_or_else(|e| panic!("{path}: {e}"));
        }
    }

    #[test]
    fn string_escapes_and_unicode() {
        let doc = parse(r#"{"bench": "a\nbA", "results": [{"circuit": "c", "n": 1}]}"#).unwrap();
        assert_eq!(doc.get("bench"), Some(&Json::String("a\nbA".into())));
    }
}
