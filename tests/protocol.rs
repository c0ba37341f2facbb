//! Wire-protocol tests: envelope parsing (including nested
//! containers), structured error codes, the refusal of unversioned
//! lines, streaming frames through an in-memory connection, unique
//! in-flight ids, and proptests over malformed / truncated /
//! version-mismatched lines.

use std::io::{self, Write};
use std::path::PathBuf;
use std::sync::{Arc, Mutex};

use proptest::prelude::*;
use ser_suite::epp::{AnalysisSession, PolarityMode};
use ser_suite::service::json::{self, JsonValue};
use ser_suite::service::{
    parse_wire_line, Connection, EngineConfig, ErrorCode, FrameSink, LineStream, ProtocolEngine,
    SerService, SerServiceConfig, WireOp, PROTOCOL_VERSION,
};
use ser_suite::sim::SequentialMonteCarlo;
use ser_suite::sp::InputProbs;

// ---------------------------------------------------------------------
// Harness: an in-memory connection over the real engine
// ---------------------------------------------------------------------

struct ScriptLines(std::vec::IntoIter<String>);

impl LineStream for ScriptLines {
    fn next_line(&mut self) -> io::Result<Option<String>> {
        Ok(self.0.next())
    }
}

#[derive(Clone)]
struct Capture(Arc<Mutex<Vec<u8>>>);

impl Write for Capture {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// Runs `lines` through one engine connection; returns the reply lines.
fn run_lines(engine: &ProtocolEngine, lines: Vec<String>) -> Vec<String> {
    let buffer = Arc::new(Mutex::new(Vec::new()));
    let conn = Connection {
        lines: Box::new(ScriptLines(lines.into_iter())),
        sink: FrameSink::new(Capture(Arc::clone(&buffer))),
        peer: "test".to_owned(),
    };
    engine.serve_connection(conn).expect("in-memory I/O");
    let bytes = buffer.lock().unwrap().clone();
    String::from_utf8(bytes)
        .expect("utf-8 frames")
        .lines()
        .map(str::to_owned)
        .collect()
}

fn engine() -> ProtocolEngine {
    engine_with(EngineConfig::default())
}

fn engine_with(config: EngineConfig) -> ProtocolEngine {
    ProtocolEngine::new(
        Arc::new(SerService::new(SerServiceConfig {
            max_sessions: 4,
            threads: 2,
            sweep_batch_sites: 4, // many parts per sweep
            max_sweep_responses: 8,
            plan_cache_dir: None,
            plan_cache_max_bytes: None,
            ..SerServiceConfig::default()
        })),
        config,
    )
}

/// Writes the canonical 5-node test netlist; returns its path.
fn write_netlist(name: &str) -> PathBuf {
    let mut path = std::env::temp_dir();
    path.push(format!("ser_protocol_{}_{name}.bench", std::process::id()));
    std::fs::write(
        &path,
        "INPUT(a)\nINPUT(b)\nINPUT(c)\nOUTPUT(y)\nu = AND(a, b)\ny = OR(u, c)\n",
    )
    .unwrap();
    path
}

fn frame_kind(line: &str) -> Option<String> {
    let v = json::parse_value(line).unwrap_or_else(|e| panic!("bad frame `{line}`: {e}"));
    v.get("frame")
        .and_then(JsonValue::as_str)
        .map(str::to_owned)
}

fn error_code(line: &str) -> Option<String> {
    let v = json::parse_value(line).ok()?;
    v.get("error")?
        .get("code")
        .and_then(JsonValue::as_str)
        .map(str::to_owned)
}

// ---------------------------------------------------------------------
// Envelope parsing
// ---------------------------------------------------------------------

#[test]
fn v2_envelope_parses_each_op_with_nested_containers() {
    let req = parse_wire_line(
        r#"{"v": 2, "id": "r1", "op": "sweep", "netlist": "x.bench", "sites": ["a", "y"], "polarity": "merged", "top": 3, "chunk_sites": 2}"#,
    )
    .unwrap();
    assert_eq!(req.id.as_deref(), Some("r1"));
    let WireOp::Sweep(sweep) = req.op else {
        panic!("sweep expected");
    };
    assert_eq!(
        sweep.sites.as_deref(),
        Some(&["a".to_owned(), "y".to_owned()][..])
    );
    assert_eq!(sweep.polarity, PolarityMode::Merged);
    assert_eq!(sweep.top, Some(3));
    assert_eq!(sweep.chunk_sites, Some(2));

    let req = parse_wire_line(
        r#"{"v": 2, "op": "multi_cycle", "netlist": "x.bench", "node": "y", "cycles": 4, "monte_carlo": {"runs": 1000, "target_error": 0.2, "seed": 9}}"#,
    )
    .unwrap();
    let WireOp::MultiCycle(mcy) = req.op else {
        panic!("multi_cycle expected");
    };
    assert_eq!(mcy.cycles, 4);
    let leg = mcy.monte_carlo.unwrap();
    assert_eq!(
        (leg.runs, leg.target_error, leg.seed),
        (1000, Some(0.2), Some(9))
    );

    let req = parse_wire_line(
        r#"{"v": 2, "op": "set_inputs", "netlist": "x.bench", "inputs": {"default": 0.3, "overrides": {"a": 0.9, "b": 0.25}}}"#,
    )
    .unwrap();
    let WireOp::SetInputs(si) = req.op else {
        panic!("set_inputs expected");
    };
    assert_eq!(si.default_p, 0.3);
    assert_eq!(
        si.overrides,
        vec![("a".to_owned(), 0.9), ("b".to_owned(), 0.25)]
    );

    assert!(matches!(
        parse_wire_line(r#"{"v": 2, "op": "stats"}"#).unwrap().op,
        WireOp::Stats
    ));
    assert!(matches!(
        parse_wire_line(r#"{"v": 2, "op": "hello", "token": "s"}"#)
            .unwrap()
            .op,
        WireOp::Hello { token: Some(_) }
    ));
}

#[test]
fn wire_ops_table_matches_the_parser() {
    // WIRE_OPS is the load-bearing anchor ser-lint's wire-doc-sync
    // rule extracts; this test pins it to the dispatcher. Every
    // listed op must be *known* to the parser (it may still reject a
    // field-free envelope as bad_request — that proves dispatch
    // happened), and an op off the list must be unknown_op.
    for op in ser_service::WIRE_OPS {
        let line = format!("{{\"v\": 2, \"op\": \"{op}\"}}");
        match parse_wire_line(&line) {
            Ok(_) => {}
            Err(e) => assert_ne!(
                e.code,
                ErrorCode::UnknownOp,
                "`{op}` is in WIRE_OPS but the parser does not know it"
            ),
        }
    }
    let err = parse_wire_line(r#"{"v": 2, "op": "not_an_op"}"#).unwrap_err();
    assert_eq!(err.code, ErrorCode::UnknownOp);
}

#[test]
fn v2_rejects_unknown_ops_unread_fields_and_bad_probabilities() {
    let err = parse_wire_line(r#"{"v": 2, "op": "warp", "netlist": "x"}"#).unwrap_err();
    assert_eq!(err.code, ErrorCode::UnknownOp);

    // Unread fields fail loudly.
    let err = parse_wire_line(r#"{"v": 2, "op": "stats", "netlist": "x.bench"}"#).unwrap_err();
    assert_eq!(err.code, ErrorCode::BadRequest, "{err}");
    assert!(err.message.contains("netlist"), "{err}");
    let err =
        parse_wire_line(r#"{"v": 2, "op": "site", "netlist": "x", "node": "y", "vectors": 5}"#)
            .unwrap_err();
    assert_eq!(err.code, ErrorCode::BadRequest, "{err}");

    // Probabilities validated at parse time (no panic deep inside).
    let err = parse_wire_line(
        r#"{"v": 2, "op": "set_inputs", "netlist": "x", "inputs": {"default": 1.5}}"#,
    )
    .unwrap_err();
    assert_eq!(err.code, ErrorCode::BadRequest, "{err}");

    // Nested config in the wrong shape.
    let err = parse_wire_line(
        r#"{"v": 2, "op": "multi_cycle", "netlist": "x", "node": "y", "cycles": 2, "monte_carlo": 7}"#,
    )
    .unwrap_err();
    assert_eq!(err.code, ErrorCode::BadRequest, "{err}");
}

#[test]
fn version_gate_is_strict() {
    for line in [
        r#"{"v": 1, "op": "sweep", "netlist": "x"}"#,
        r#"{"v": 3, "op": "sweep", "netlist": "x"}"#,
        r#"{"v": 99, "op": "stats"}"#,
    ] {
        let err = parse_wire_line(line).unwrap_err();
        assert_eq!(err.code, ErrorCode::UnsupportedVersion, "{line}");
    }
    let err = parse_wire_line(r#"{"v": "two", "op": "stats"}"#).unwrap_err();
    assert_eq!(err.code, ErrorCode::BadRequest);
    let err = parse_wire_line(r#"{"v": 2.5, "op": "stats"}"#).unwrap_err();
    assert_eq!(err.code, ErrorCode::BadRequest);
}

#[test]
fn unversioned_lines_get_unsupported_version() {
    // The flat, unversioned job shape is refused, parsed or served.
    let line = r#"{"op": "site", "netlist": "x.bench", "node": "y"}"#;
    let err = parse_wire_line(line).unwrap_err();
    assert_eq!(err.code, ErrorCode::UnsupportedVersion, "{err}");
    assert!(err.message.contains("\"v\""), "{err}");

    let netlist = write_netlist("unversioned");
    let path = netlist.to_str().unwrap();
    let engine = engine();
    let replies = run_lines(
        &engine,
        vec![
            format!(r#"{{"op": "sweep", "netlist": "{path}", "top": 2}}"#),
            // The connection stays usable after the refusal.
            format!(r#"{{"v": 2, "id": "ok", "op": "site", "netlist": "{path}", "node": "y"}}"#),
        ],
    );
    assert_eq!(replies.len(), 2, "{replies:?}");
    assert_eq!(frame_kind(&replies[0]).as_deref(), Some("error"));
    assert_eq!(
        error_code(&replies[0]).as_deref(),
        Some("unsupported_version")
    );
    assert_eq!(frame_kind(&replies[1]).as_deref(), Some("result"));
    let _ = std::fs::remove_file(&netlist);
}

// ---------------------------------------------------------------------
// v2 end to end through an in-memory connection
// ---------------------------------------------------------------------

#[test]
fn sweep_chunks_are_bit_identical_to_a_direct_session() {
    let netlist = write_netlist("chunks");
    let path = netlist.to_str().unwrap();
    let engine = engine();
    let replies = run_lines(
        &engine,
        vec![format!(
            r#"{{"v": 2, "id": "s1", "op": "sweep", "netlist": "{path}", "chunk_sites": 2, "top": 0}}"#
        )],
    );
    // 5 nodes in chunks of 2: three chunk frames, then the result.
    assert_eq!(replies.len(), 4, "{replies:?}");
    let mut values: Vec<(String, f64)> = Vec::new();
    for line in &replies[..3] {
        assert_eq!(frame_kind(line).as_deref(), Some("chunk"));
        let v = json::parse_value(line).unwrap();
        assert_eq!(v.get("id").and_then(JsonValue::as_str), Some("s1"));
        let JsonValue::Arr(sites) = v.get("sites").unwrap() else {
            panic!("sites array");
        };
        for site in sites {
            values.push((
                site.get("node")
                    .and_then(JsonValue::as_str)
                    .unwrap()
                    .to_owned(),
                site.get("p_sensitized")
                    .and_then(JsonValue::as_f64)
                    .unwrap(),
            ));
        }
    }
    let result = json::parse_value(&replies[3]).unwrap();
    assert_eq!(frame_kind(&replies[3]).as_deref(), Some("result"));
    assert_eq!(result.get("chunks").and_then(JsonValue::as_count), Some(3));

    // Every chunked value round-trips bit-identically to the direct
    // owned-session sweep.
    let circuit =
        ser_suite::netlist::parse_bench(&std::fs::read_to_string(&netlist).unwrap(), "chunks")
            .unwrap();
    let session = AnalysisSession::new(&circuit).unwrap();
    let direct = session.sweep(1);
    assert_eq!(values.len(), circuit.len());
    for (pos, (name, p)) in values.iter().enumerate() {
        let site = direct.get(pos);
        assert_eq!(name, circuit.node(site.site()).name());
        assert_eq!(
            p.to_bits(),
            site.p_sensitized().to_bits(),
            "site {name}: wire value not bit-identical"
        );
    }
    let _ = std::fs::remove_file(&netlist);
}

#[test]
fn sequential_monte_carlo_streams_progress_frames() {
    let netlist = write_netlist("mcstream");
    let path = netlist.to_str().unwrap();
    let engine = engine();
    let replies = run_lines(
        &engine,
        vec![format!(
            r#"{{"v": 2, "id": "mc1", "op": "monte_carlo", "netlist": "{path}", "node": "a", "target_error": 0.04, "seed": 11}}"#
        )],
    );
    let (progress, rest): (Vec<_>, Vec<_>) = replies
        .iter()
        .partition(|l| frame_kind(l).as_deref() == Some("progress"));
    assert!(
        progress.len() >= 2,
        "sequential MC must stream ≥ 2 progress frames, got {}: {replies:?}",
        progress.len()
    );
    assert_eq!(rest.len(), 1, "exactly one result frame: {rest:?}");
    assert!(
        replies.last().map(|l| frame_kind(l)).unwrap().as_deref() == Some("result"),
        "result is the final frame"
    );
    // Progress counters are monotonic and id-tagged.
    let mut last_vectors = 0;
    for line in &progress {
        let v = json::parse_value(line).unwrap();
        assert_eq!(v.get("id").and_then(JsonValue::as_str), Some("mc1"));
        let vectors = v.get("vectors").and_then(JsonValue::as_count).unwrap();
        assert!(vectors > last_vectors);
        last_vectors = vectors;
        let interim = v.get("interim_p").and_then(JsonValue::as_f64).unwrap();
        assert!((0.0..=1.0).contains(&interim));
    }
    // The final estimate is bit-identical to the rule run directly.
    let circuit =
        ser_suite::netlist::parse_bench(&std::fs::read_to_string(&netlist).unwrap(), "mcstream")
            .unwrap();
    let session = AnalysisSession::new(&circuit).unwrap();
    let direct = SequentialMonteCarlo::new(0.04)
        .with_seed(11)
        .with_max_vectors(10_000)
        .estimate_site(
            session.bit_sim(),
            circuit.find("a").unwrap(),
            None,
            |_, _| {},
        )
        .unwrap();
    let result = json::parse_value(rest[0]).unwrap();
    assert_eq!(
        result.get("vectors").and_then(JsonValue::as_count),
        Some(direct.vectors)
    );
    assert_eq!(
        result
            .get("p_sensitized")
            .and_then(JsonValue::as_f64)
            .unwrap()
            .to_bits(),
        direct.p_sensitized.to_bits()
    );
    assert!(last_vectors < direct.vectors, "progress precedes the end");
    let _ = std::fs::remove_file(&netlist);
}

#[test]
fn set_inputs_and_stats_travel_the_wire() {
    let netlist = write_netlist("setinputs");
    let path = netlist.to_str().unwrap();
    let engine = engine();
    let replies = run_lines(
        &engine,
        vec![
            format!(r#"{{"v": 2, "id": "w0", "op": "sweep", "netlist": "{path}", "top": 0}}"#),
            format!(
                r#"{{"v": 2, "id": "w1", "op": "set_inputs", "netlist": "{path}", "inputs": {{"default": 0.5, "overrides": {{"a": 0.9, "c": 0.1}}}}}}"#
            ),
            format!(r#"{{"v": 2, "id": "w2", "op": "sweep", "netlist": "{path}", "top": 0}}"#),
            r#"{"v": 2, "id": "w3", "op": "stats"}"#.to_owned(),
        ],
    );
    assert_eq!(replies.len(), 4, "{replies:?}");
    let before = json::parse_value(&replies[0]).unwrap();
    let set = json::parse_value(&replies[1]).unwrap();
    let after = json::parse_value(&replies[2]).unwrap();
    let stats = json::parse_value(&replies[3]).unwrap();

    assert_eq!(
        set.get("op").and_then(JsonValue::as_str),
        Some("set_inputs")
    );
    assert_eq!(set.get("revision").and_then(JsonValue::as_count), Some(2));
    assert_eq!(
        after.get("warm"),
        Some(&JsonValue::Bool(true)),
        "set_inputs keeps the session warm"
    );

    // The re-derived sweep total equals the direct owned-session run
    // under the same distribution, bit for bit.
    let circuit =
        ser_suite::netlist::parse_bench(&std::fs::read_to_string(&netlist).unwrap(), "setinputs")
            .unwrap();
    let a = circuit.find("a").unwrap();
    let c = circuit.find("c").unwrap();
    let direct =
        AnalysisSession::with_inputs(&circuit, InputProbs::uniform(0.5).with(a, 0.9).with(c, 0.1))
            .unwrap()
            .sweep(1);
    let direct_total: f64 = direct.p_sensitized().iter().sum();
    let wire_total = after
        .get("total_p_sensitized")
        .and_then(JsonValue::as_f64)
        .unwrap();
    assert_eq!(wire_total.to_bits(), direct_total.to_bits());
    assert_ne!(
        wire_total.to_bits(),
        before
            .get("total_p_sensitized")
            .and_then(JsonValue::as_f64)
            .unwrap()
            .to_bits(),
        "the distribution change is visible on the wire"
    );

    // Stats reflect the traffic: two sweeps + the set_inputs lookup.
    assert_eq!(stats.get("op").and_then(JsonValue::as_str), Some("stats"));
    assert_eq!(
        stats.get("sessions_cached").and_then(JsonValue::as_count),
        Some(1)
    );
    assert!(
        stats
            .get("session_hits")
            .and_then(JsonValue::as_count)
            .unwrap()
            >= 2
    );
    let _ = std::fs::remove_file(&netlist);
}

/// Writes a small sequential netlist (one DFF in the path); returns
/// its path.
fn write_dff_netlist(name: &str) -> PathBuf {
    let mut path = std::env::temp_dir();
    path.push(format!("ser_protocol_{}_{name}.bench", std::process::id()));
    std::fs::write(
        &path,
        "INPUT(a)\nINPUT(b)\nOUTPUT(y)\nu = AND(a, b)\nq = DFF(u)\ny = OR(q, b)\n",
    )
    .unwrap();
    path
}

#[test]
fn whatif_and_revert_round_trip_bitwise() {
    let netlist = write_netlist("whatif");
    let path = netlist.to_str().unwrap();
    let engine = engine();
    let replies = run_lines(
        &engine,
        vec![
            format!(r#"{{"v": 2, "id": "q0", "op": "sweep", "netlist": "{path}", "top": 0}}"#),
            format!(
                r#"{{"v": 2, "id": "q1", "op": "whatif", "netlist": "{path}", "edit": "tmr", "node": "u", "chunk_sites": 4}}"#
            ),
            format!(r#"{{"v": 2, "id": "q2", "op": "whatif_revert", "netlist": "{path}"}}"#),
            format!(r#"{{"v": 2, "id": "q3", "op": "sweep", "netlist": "{path}", "top": 0}}"#),
        ],
    );

    let baseline = json::parse_value(&replies[0]).unwrap();
    let baseline_total = baseline
        .get("total_p_sensitized")
        .and_then(JsonValue::as_f64)
        .unwrap();

    // The whatif reply: chunk frames carrying the dirty-region deltas,
    // then the result frame.
    let whatif_frames: Vec<&String> = replies[1..]
        .iter()
        .take_while(|l| frame_kind(l).as_deref() == Some("chunk"))
        .collect();
    let result = json::parse_value(&replies[1 + whatif_frames.len()]).unwrap();
    assert_eq!(result.get("op").and_then(JsonValue::as_str), Some("whatif"));
    assert_eq!(result.get("edit").and_then(JsonValue::as_str), Some("tmr"));
    assert_eq!(result.get("depth").and_then(JsonValue::as_count), Some(1));

    let mut deltas = 0usize;
    let mut born = 0usize; // sites the edit introduced (old_p null)
    for (seq, line) in whatif_frames.iter().enumerate() {
        let v = json::parse_value(line).unwrap();
        assert_eq!(v.get("seq").and_then(JsonValue::as_count), Some(seq as u64));
        let JsonValue::Arr(items) = v.get("deltas").unwrap() else {
            panic!("deltas array");
        };
        for item in items {
            deltas += 1;
            if matches!(item.get("old_p"), Some(JsonValue::Null)) {
                born += 1;
            } else {
                item.get("old_p").and_then(JsonValue::as_f64).unwrap();
            }
            item.get("new_p").and_then(JsonValue::as_f64).unwrap();
        }
    }
    assert_eq!(
        born, 6,
        "TMR introduces two replicas and a 4-gate voter tree"
    );
    assert_eq!(
        result.get("dirty_sites").and_then(JsonValue::as_count),
        Some(deltas as u64),
        "every dirty site's delta is streamed"
    );
    assert_eq!(
        result.get("chunks").and_then(JsonValue::as_count),
        Some(whatif_frames.len() as u64)
    );
    assert_eq!(
        result
            .get("previous_ser")
            .and_then(JsonValue::as_f64)
            .unwrap()
            .to_bits(),
        baseline_total.to_bits(),
        "the what-if base state is the warm sweep, bit for bit"
    );

    // The incremental total is bit-identical to a from-scratch session
    // on the edited circuit.
    let circuit =
        ser_suite::netlist::parse_bench(&std::fs::read_to_string(&netlist).unwrap(), "whatif")
            .unwrap();
    let u = circuit.find("u").unwrap();
    let hardened = ser_suite::netlist::harden_tmr(&circuit, &[u]).unwrap();
    let direct: f64 = AnalysisSession::new(&hardened)
        .unwrap()
        .sweep(1)
        .p_sensitized()
        .iter()
        .sum();
    let edited_total = result.get("total_ser").and_then(JsonValue::as_f64).unwrap();
    assert_eq!(
        result.get("total_sites").and_then(JsonValue::as_count),
        Some(11)
    );
    assert_eq!(edited_total.to_bits(), direct.to_bits());
    assert_ne!(edited_total.to_bits(), baseline_total.to_bits());

    // Revert pops back to the base payload bitwise, and a fresh sweep
    // of the (unchanged) netlist agrees.
    let revert = json::parse_value(&replies[1 + whatif_frames.len() + 1]).unwrap();
    assert_eq!(
        revert.get("op").and_then(JsonValue::as_str),
        Some("whatif_revert")
    );
    assert_eq!(revert.get("depth").and_then(JsonValue::as_count), Some(0));
    assert_eq!(
        revert
            .get("total_ser")
            .and_then(JsonValue::as_f64)
            .unwrap()
            .to_bits(),
        baseline_total.to_bits(),
        "revert restores the base total bitwise"
    );
    let after = json::parse_value(replies.last().unwrap()).unwrap();
    assert_eq!(
        after
            .get("total_p_sensitized")
            .and_then(JsonValue::as_f64)
            .unwrap()
            .to_bits(),
        baseline_total.to_bits()
    );
    let _ = std::fs::remove_file(&netlist);
}

#[test]
fn caps_reject_oversized_requests_before_the_executor() {
    let netlist = write_netlist("caps");
    let path = netlist.to_str().unwrap();
    let engine = ProtocolEngine::new(
        Arc::new(SerService::new(SerServiceConfig {
            max_sessions: 4,
            threads: 2,
            max_vectors: 1_000,
            max_cycles: 8,
            max_runs: 500,
            ..SerServiceConfig::default()
        })),
        EngineConfig::default(),
    );
    let replies = run_lines(
        &engine,
        vec![
            format!(
                r#"{{"v": 2, "id": "c1", "op": "multi_cycle", "netlist": "{path}", "node": "y", "cycles": 9}}"#
            ),
            format!(
                r#"{{"v": 2, "id": "c2", "op": "monte_carlo", "netlist": "{path}", "node": "y", "vectors": 2000}}"#
            ),
            format!(
                r#"{{"v": 2, "id": "c3", "op": "multi_cycle", "netlist": "{path}", "node": "y", "cycles": 2, "monte_carlo": {{"runs": 600}}}}"#
            ),
            format!(
                r#"{{"v": 2, "id": "c4", "op": "monte_carlo", "netlist": "{path}", "node": "y", "vectors": 1000, "seed": 3}}"#
            ),
        ],
    );
    assert_eq!(replies.len(), 4, "{replies:?}");
    for (line, what) in replies[..3].iter().zip(["cycles", "vectors", "runs"]) {
        assert_eq!(frame_kind(line).as_deref(), Some("error"), "{line}");
        assert_eq!(error_code(line).as_deref(), Some("cap_exceeded"), "{line}");
        let message = json::parse_value(line)
            .unwrap()
            .get("error")
            .unwrap()
            .get("message")
            .and_then(JsonValue::as_str)
            .unwrap()
            .to_owned();
        assert!(
            message.contains(what) && message.contains("cap"),
            "message names the knob: {message}"
        );
    }
    assert_eq!(
        frame_kind(&replies[3]).as_deref(),
        Some("result"),
        "a request at the cap is served: {}",
        replies[3]
    );
    let _ = std::fs::remove_file(&netlist);
}

#[test]
fn multi_cycle_sequential_mc_streams_progress_frames() {
    let netlist = write_dff_netlist("mcycle_stream");
    let path = netlist.to_str().unwrap();
    let engine = engine();
    let replies = run_lines(
        &engine,
        vec![format!(
            r#"{{"v": 2, "id": "p1", "op": "multi_cycle", "netlist": "{path}", "node": "u", "cycles": 3, "monte_carlo": {{"runs": 100000, "target_error": 0.05, "seed": 7}}}}"#
        )],
    );
    let (progress, rest): (Vec<_>, Vec<_>) = replies
        .iter()
        .partition(|l| frame_kind(l).as_deref() == Some("progress"));
    assert!(
        !progress.is_empty(),
        "sequential multi-cycle MC must stream progress frames: {replies:?}"
    );
    assert_eq!(rest.len(), 1, "exactly one result frame: {rest:?}");
    let mut last = 0;
    for line in &progress {
        let v = json::parse_value(line).unwrap();
        assert_eq!(v.get("id").and_then(JsonValue::as_str), Some("p1"));
        assert_eq!(
            v.get("op").and_then(JsonValue::as_str),
            Some("monte_carlo"),
            "multi-cycle progress reuses the MC progress shape"
        );
        let runs = v.get("vectors").and_then(JsonValue::as_count).unwrap();
        assert!(runs > last, "monotonic: {replies:?}");
        last = runs;
    }

    // The estimate is bit-identical to the sequential rule run
    // directly — the observer is pure telemetry.
    let circuit = ser_suite::netlist::parse_bench(
        &std::fs::read_to_string(&netlist).unwrap(),
        "mcycle_stream",
    )
    .unwrap();
    let direct = ser_suite::epp::multi_cycle_monte_carlo_sequential(
        circuit.clone(),
        circuit.find("u").unwrap(),
        3,
        0.05,
        100_000,
        7,
        &mut |_, _| {},
        None,
    )
    .unwrap();
    let result = json::parse_value(rest[0]).unwrap();
    assert_eq!(
        result.get("mc_runs").and_then(JsonValue::as_count),
        Some(direct.runs)
    );
    let JsonValue::Arr(wire_cumulative) = result.get("mc_cumulative").unwrap() else {
        panic!("mc_cumulative array");
    };
    assert_eq!(wire_cumulative.len(), direct.cumulative.len());
    for (wire, direct) in wire_cumulative.iter().zip(&direct.cumulative) {
        assert_eq!(
            wire.as_f64().unwrap().to_bits(),
            direct.to_bits(),
            "wire multi-cycle MC value not bit-identical"
        );
    }
    assert!(last < direct.runs, "progress precedes the end");
    let _ = std::fs::remove_file(&netlist);
}

#[test]
fn auth_and_quota_gates() {
    let netlist = write_netlist("gates");
    let path = netlist.to_str().unwrap();

    // Auth: a non-hello first op is rejected and the connection closes.
    let engine = engine_with(EngineConfig {
        auth_token: Some("sesame".to_owned()),
        ..EngineConfig::default()
    });
    let replies = run_lines(
        &engine,
        vec![
            r#"{"v": 2, "op": "stats"}"#.to_owned(),
            r#"{"v": 2, "op": "stats"}"#.to_owned(), // never reached
        ],
    );
    assert_eq!(replies.len(), 1, "{replies:?}");
    assert_eq!(error_code(&replies[0]).as_deref(), Some("unauthorized"));

    // Wrong token: same.
    let replies = run_lines(
        &engine,
        vec![r#"{"v": 2, "op": "hello", "token": "wrong"}"#.to_owned()],
    );
    assert_eq!(error_code(&replies[0]).as_deref(), Some("unauthorized"));

    // Garbage cannot sidestep the gate: an unparseable pre-auth line
    // closes the connection just like any other non-hello line (an
    // unauthenticated client must not elicit unlimited replies).
    let replies = run_lines(
        &engine,
        vec![
            "not even json".to_owned(),
            "more garbage".to_owned(), // never reached
        ],
    );
    assert_eq!(replies.len(), 1, "{replies:?}");
    assert_eq!(error_code(&replies[0]).as_deref(), Some("unauthorized"));

    // Right token: handshake result, then service.
    let replies = run_lines(
        &engine,
        vec![
            r#"{"v": 2, "id": "h", "op": "hello", "token": "sesame"}"#.to_owned(),
            r#"{"v": 2, "op": "stats"}"#.to_owned(),
        ],
    );
    assert_eq!(replies.len(), 2, "{replies:?}");
    let hello = json::parse_value(&replies[0]).unwrap();
    assert_eq!(hello.get("op").and_then(JsonValue::as_str), Some("hello"));
    assert_eq!(
        hello.get("protocol").and_then(JsonValue::as_count),
        Some(PROTOCOL_VERSION)
    );
    assert_eq!(frame_kind(&replies[1]).as_deref(), Some("result"));

    // Quota: the third op (hello doesn't count) is refused, connection
    // closes.
    let engine = engine_with(EngineConfig {
        quota: Some(2),
        ..EngineConfig::default()
    });
    let replies = run_lines(
        &engine,
        vec![
            r#"{"v": 2, "op": "hello"}"#.to_owned(),
            format!(r#"{{"v": 2, "op": "site", "netlist": "{path}", "node": "y"}}"#),
            r#"{"v": 2, "op": "stats"}"#.to_owned(),
            r#"{"v": 2, "id": "q", "op": "stats"}"#.to_owned(),
            r#"{"v": 2, "op": "stats"}"#.to_owned(), // never reached
        ],
    );
    assert_eq!(replies.len(), 4, "{replies:?}");
    assert_eq!(error_code(&replies[3]).as_deref(), Some("quota_exceeded"));
    let refused = json::parse_value(&replies[3]).unwrap();
    assert_eq!(refused.get("id").and_then(JsonValue::as_str), Some("q"));

    // Unparseable lines count against the quota too — garbage is not a
    // loophole for unlimited replies.
    let engine = engine_with(EngineConfig {
        quota: Some(2),
        ..EngineConfig::default()
    });
    let replies = run_lines(
        &engine,
        vec![
            "garbage one {".to_owned(),
            "garbage two {".to_owned(),
            "garbage three {".to_owned(), // over quota: refused + close
            "garbage four {".to_owned(),  // never reached
        ],
    );
    assert_eq!(replies.len(), 3, "{replies:?}");
    assert_eq!(error_code(&replies[0]).as_deref(), Some("parse"));
    assert_eq!(error_code(&replies[1]).as_deref(), Some("parse"));
    assert_eq!(error_code(&replies[2]).as_deref(), Some("quota_exceeded"));

    // And so do repeated hellos: only the first handshake is free.
    let engine = engine_with(EngineConfig {
        quota: Some(2),
        ..EngineConfig::default()
    });
    let hello = r#"{"v": 2, "op": "hello"}"#.to_owned();
    let replies = run_lines(
        &engine,
        vec![
            hello.clone(), // free handshake
            hello.clone(), // counted: 1
            hello.clone(), // counted: 2
            hello.clone(), // over quota: refused + close
            hello,         // never reached
        ],
    );
    assert_eq!(replies.len(), 4, "{replies:?}");
    for line in &replies[..3] {
        assert_eq!(frame_kind(line).as_deref(), Some("result"), "{line}");
    }
    assert_eq!(error_code(&replies[3]).as_deref(), Some("quota_exceeded"));
    let _ = std::fs::remove_file(&netlist);
}

#[test]
fn structured_errors_come_back_as_code_message_objects() {
    let netlist = write_netlist("errors");
    let path = netlist.to_str().unwrap();
    let engine = engine();
    let replies = run_lines(
        &engine,
        vec![
            "not json at all".to_owned(),
            r#"{"v": 7, "op": "stats"}"#.to_owned(),
            format!(r#"{{"v": 2, "op": "site", "netlist": "{path}", "node": "nope"}}"#),
            r#"{"v": 2, "op": "site", "netlist": "/nonexistent/x.bench", "node": "y"}"#.to_owned(),
            format!(
                r#"{{"v": 2, "op": "monte_carlo", "netlist": "{path}", "node": "y", "target_error": 1.5}}"#
            ),
        ],
    );
    let codes: Vec<_> = replies.iter().map(|l| error_code(l).unwrap()).collect();
    assert_eq!(
        codes,
        [
            "parse",
            "unsupported_version",
            "not_found",
            "not_found",
            "bad_request"
        ],
        "{replies:?}"
    );
    for line in &replies {
        let v = json::parse_value(line).unwrap();
        assert_eq!(frame_kind(line).as_deref(), Some("error"));
        assert!(
            v.get("error")
                .unwrap()
                .get("message")
                .and_then(JsonValue::as_str)
                .is_some(),
            "errors carry a message: {line}"
        );
    }
    let _ = std::fs::remove_file(&netlist);
}

// ---------------------------------------------------------------------
// Proptests: malformed, truncated, version-mismatched lines
// ---------------------------------------------------------------------

/// Canonical well-formed lines for the truncation property.
const CANONICAL_LINES: &[&str] = &[
    r#"{"v": 2, "id": "r1", "op": "sweep", "netlist": "x.bench", "sites": ["a", "y"], "chunk_sites": 2}"#,
    r#"{"v": 2, "op": "set_inputs", "netlist": "x.bench", "inputs": {"default": 0.5, "overrides": {"a": 0.9}}}"#,
    r#"{"v": 2, "op": "multi_cycle", "netlist": "x.bench", "node": "y", "cycles": 4, "monte_carlo": {"runs": 1000}}"#,
    r#"{"v": 2, "op": "monte_carlo", "netlist": "s953.bench", "node": "G125", "vectors": 20000}"#,
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Arbitrary bytes never panic the parser; they either parse (as
    /// some valid line) or produce a structured error.
    #[test]
    fn garbage_lines_never_panic(bytes in proptest::collection::vec(0u8..128, 0usize..80)) {
        let line = String::from_utf8_lossy(&bytes).into_owned();
        match parse_wire_line(&line) {
            Ok(_) => {}
            Err(e) => prop_assert!(!e.message.is_empty()),
        }
    }

    /// Every proper prefix of a canonical line is a structured parse
    /// error — a truncated frame can never be mistaken for a request.
    #[test]
    fn truncated_frames_are_parse_errors((which, frac) in (0usize..4, 0.0f64..1.0)) {
        let line = CANONICAL_LINES[which];
        let cut = 1 + ((line.len() - 1) as f64 * frac) as usize;
        prop_assert!(cut < line.len());
        let truncated = &line[..cut];
        let err = parse_wire_line(truncated).expect_err("truncation must not parse");
        prop_assert_eq!(err.code, ErrorCode::Parse);
    }

    /// Any version other than 2 is refused with `unsupported_version`
    /// (never served, never panics).
    #[test]
    fn version_mismatches_are_refused(v in 0u64..1000) {
        let line = format!(r#"{{"v": {v}, "op": "stats"}}"#);
        match parse_wire_line(&line) {
            Ok(parsed) => {
                prop_assert_eq!(v, PROTOCOL_VERSION);
                prop_assert!(matches!(parsed.op, WireOp::Stats));
            }
            Err(e) => {
                prop_assert_ne!(v, PROTOCOL_VERSION);
                prop_assert_eq!(e.code, ErrorCode::UnsupportedVersion);
            }
        }
    }
}

// ---------------------------------------------------------------------
// Cancellation, deadlines, batch
// ---------------------------------------------------------------------

#[test]
fn cancel_batch_and_deadline_envelopes_parse() {
    // Every op accepts a deadline.
    let req = parse_wire_line(
        r#"{"v": 2, "id": "s", "op": "site", "netlist": "x.bench", "node": "y", "deadline_ms": 250}"#,
    )
    .unwrap();
    assert_eq!(req.deadline_ms, Some(250));

    // The cancel op names its target.
    let req = parse_wire_line(r#"{"v": 2, "id": "c1", "op": "cancel", "target": "r42"}"#).unwrap();
    let WireOp::Cancel(op) = req.op else {
        panic!("cancel expected");
    };
    assert_eq!(op.target, "r42");
    let err = parse_wire_line(r#"{"v": 2, "op": "cancel"}"#).unwrap_err();
    assert_eq!(err.code, ErrorCode::BadRequest, "{err}");
    assert!(err.message.contains("target"), "{err}");

    // Batch: nested jobs parse recursively, with their own ids and
    // deadlines.
    let req = parse_wire_line(
        r#"{"v": 2, "id": "b", "op": "batch", "deadline_ms": 9000, "jobs": [{"id": "j1", "op": "sweep", "netlist": "x.bench"}, {"id": "j2", "op": "site", "netlist": "x.bench", "node": "y", "deadline_ms": 100}]}"#,
    )
    .unwrap();
    assert_eq!(req.deadline_ms, Some(9000));
    let WireOp::Batch(op) = req.op else {
        panic!("batch expected");
    };
    assert_eq!(op.jobs.len(), 2);
    assert_eq!(op.jobs[0].id.as_deref(), Some("j1"));
    assert_eq!(op.jobs[1].deadline_ms, Some(100));

    // Batch rejections: empty, non-compute jobs, nested batches, and
    // malformed jobs are named by index.
    for (line, needle) in [
        (r#"{"v": 2, "op": "batch", "jobs": []}"#.to_owned(), "jobs"),
        (
            r#"{"v": 2, "op": "batch", "jobs": [{"op": "stats"}]}"#.to_owned(),
            "jobs[0]",
        ),
        (
            r#"{"v": 2, "op": "batch", "jobs": [{"op": "site", "netlist": "x", "node": "y"}, {"op": "batch", "jobs": []}]}"#.to_owned(),
            "jobs[1]",
        ),
        (
            r#"{"v": 2, "op": "batch", "jobs": [{"op": "site", "netlist": "x"}]}"#.to_owned(),
            "jobs[0]",
        ),
    ] {
        let err = parse_wire_line(&line).unwrap_err();
        assert!(err.message.contains(needle), "{line} -> {err}");
    }
}

#[test]
fn expired_deadline_is_refused_before_any_work() {
    let netlist = write_netlist("deadline");
    let path = netlist.to_str().unwrap();
    let engine = engine();
    let replies = run_lines(
        &engine,
        vec![
            format!(
                r#"{{"v": 2, "id": "d1", "op": "sweep", "netlist": "{path}", "deadline_ms": 0}}"#
            ),
            // The same request unhurried succeeds on the same connection:
            // an expired deadline poisons nothing.
            format!(r#"{{"v": 2, "id": "d2", "op": "sweep", "netlist": "{path}", "top": 0}}"#),
        ],
    );
    assert_eq!(replies.len(), 2, "{replies:?}");
    assert_eq!(frame_kind(&replies[0]).as_deref(), Some("error"));
    assert_eq!(
        error_code(&replies[0]).as_deref(),
        Some("deadline_exceeded")
    );
    let err = json::parse_value(&replies[0]).unwrap();
    assert_eq!(err.get("id").and_then(JsonValue::as_str), Some("d1"));
    assert_eq!(frame_kind(&replies[1]).as_deref(), Some("result"));

    // No permit held, no cancel-registry entry leaked.
    assert_eq!(engine.inflight_active(), 0);
    assert_eq!(engine.cancel_registrations(), 0);
    let _ = std::fs::remove_file(&netlist);
}

#[test]
fn cancel_of_an_unknown_id_reports_found_false() {
    let engine = engine();
    let replies = run_lines(
        &engine,
        vec![r#"{"v": 2, "id": "c", "op": "cancel", "target": "nobody"}"#.to_owned()],
    );
    assert_eq!(replies.len(), 1, "{replies:?}");
    let v = json::parse_value(&replies[0]).unwrap();
    assert_eq!(frame_kind(&replies[0]).as_deref(), Some("result"));
    assert_eq!(v.get("op").and_then(JsonValue::as_str), Some("cancel"));
    assert_eq!(v.get("target").and_then(JsonValue::as_str), Some("nobody"));
    assert_eq!(v.get("found"), Some(&JsonValue::Bool(false)));
    assert_eq!(engine.inflight_active(), 0);
    assert_eq!(engine.cancel_registrations(), 0);
}

#[test]
fn batch_echoes_each_job_id_and_survives_a_cancelled_job() {
    let netlist = write_netlist("batch");
    let path = netlist.to_str().unwrap();
    let engine = engine();
    let replies = run_lines(
        &engine,
        vec![
            format!(
                r#"{{"v": 2, "id": "b1", "op": "batch", "jobs": [{{"id": "j1", "op": "sweep", "netlist": "{path}", "top": 0, "chunk_sites": 2}}, {{"id": "j2", "op": "site", "netlist": "{path}", "node": "y"}}, {{"id": "j3", "op": "monte_carlo", "netlist": "{path}", "node": "a", "vectors": 256, "seed": 7}}, {{"id": "j4", "op": "site", "netlist": "{path}", "node": "y", "deadline_ms": 0}}]}}"#
            ),
            r#"{"v": 2, "id": "st", "op": "stats"}"#.to_owned(),
        ],
    );
    // j1 pages 5 nodes in chunks of 2 (3 chunk frames + result), j2 and
    // j3 are single results, j4 dies at its expired deadline, then the
    // batch summary and the stats line.
    assert_eq!(replies.len(), 9, "{replies:?}");
    let ids: Vec<Option<String>> = replies
        .iter()
        .map(|l| {
            json::parse_value(l)
                .unwrap()
                .get("id")
                .and_then(JsonValue::as_str)
                .map(str::to_owned)
        })
        .collect();
    for (pos, want) in [
        (0, "j1"),
        (1, "j1"),
        (2, "j1"),
        (3, "j1"),
        (4, "j2"),
        (5, "j3"),
        (6, "j4"),
        (7, "b1"),
    ] {
        assert_eq!(ids[pos].as_deref(), Some(want), "{replies:?}");
    }
    for (pos, kind) in [(0, "chunk"), (3, "result"), (4, "result"), (5, "result")] {
        assert_eq!(frame_kind(&replies[pos]).as_deref(), Some(kind));
    }
    assert_eq!(
        error_code(&replies[6]).as_deref(),
        Some("deadline_exceeded")
    );
    let summary = json::parse_value(&replies[7]).unwrap();
    assert_eq!(summary.get("op").and_then(JsonValue::as_str), Some("batch"));
    assert_eq!(summary.get("jobs").and_then(JsonValue::as_count), Some(4));
    assert_eq!(summary.get("errors").and_then(JsonValue::as_count), Some(1));

    // The cancelled job is counted in service stats.
    let stats = json::parse_value(&replies[8]).unwrap();
    assert_eq!(
        stats
            .get("requests_cancelled")
            .and_then(JsonValue::as_count),
        Some(1)
    );

    // The sweep job's chunked values are bit-identical to the direct
    // owned-session sweep: a cancelled sibling never taints them.
    let circuit =
        ser_suite::netlist::parse_bench(&std::fs::read_to_string(&netlist).unwrap(), "batch")
            .unwrap();
    let session = AnalysisSession::new(&circuit).unwrap();
    let direct = session.sweep(1);
    let mut pos = 0usize;
    for line in &replies[..3] {
        let v = json::parse_value(line).unwrap();
        let JsonValue::Arr(sites) = v.get("sites").unwrap() else {
            panic!("sites array");
        };
        for site in sites {
            let p = site
                .get("p_sensitized")
                .and_then(JsonValue::as_f64)
                .unwrap();
            assert_eq!(p.to_bits(), direct.get(pos).p_sensitized().to_bits());
            pos += 1;
        }
    }
    assert_eq!(pos, circuit.len());

    assert_eq!(engine.inflight_active(), 0);
    assert_eq!(engine.cancel_registrations(), 0);
    let _ = std::fs::remove_file(&netlist);
}

#[test]
fn batch_rejects_a_bad_job_before_running_any() {
    let netlist = write_netlist("batchbad");
    let path = netlist.to_str().unwrap();
    let engine = engine();
    let replies = run_lines(
        &engine,
        vec![format!(
            r#"{{"v": 2, "id": "b2", "op": "batch", "jobs": [{{"id": "ok", "op": "site", "netlist": "{path}", "node": "y"}}, {{"id": "bad", "op": "site", "netlist": "{path}", "node": "no_such_node"}}]}}"#
        )],
    );
    // One error frame for the whole envelope — no per-job results, no
    // partial execution.
    assert_eq!(replies.len(), 1, "{replies:?}");
    assert_eq!(error_code(&replies[0]).as_deref(), Some("not_found"));
    let v = json::parse_value(&replies[0]).unwrap();
    assert_eq!(v.get("id").and_then(JsonValue::as_str), Some("b2"));
    assert_eq!(engine.inflight_active(), 0);
    assert_eq!(engine.cancel_registrations(), 0);
    let _ = std::fs::remove_file(&netlist);
}

/// Masks the two fields that legitimately differ between otherwise
/// identical replies: the measured `wall_us` and the session's `warm`.
fn mask_timing(frame: &str) -> String {
    let mut out = frame.to_owned();
    for key in ["\"wall_us\": ", "\"warm\": "] {
        if let Some(start) = out.find(key).map(|at| at + key.len()) {
            let len = out[start..].find([',', '}']).unwrap();
            out.replace_range(start..start + len, "_");
        }
    }
    out
}

#[test]
fn a_solo_op_answers_like_the_same_job_in_a_batch() {
    let netlist = write_netlist("solo_batch");
    let path = netlist.to_str().unwrap();
    let dff_netlist = write_dff_netlist("solo_batch_dff");
    let dff_path = dff_netlist.to_str().unwrap();
    // One-site sweep parts: every part adds 1 to `sites_done`, so the
    // progress frames are the same whatever order the parts land in.
    let fresh_engine = || {
        ProtocolEngine::new(
            Arc::new(SerService::new(SerServiceConfig {
                threads: 2,
                sweep_batch_sites: 1,
                ..SerServiceConfig::default()
            })),
            EngineConfig::default(),
        )
    };
    let jobs = [
        format!(
            r#""id": "j", "op": "sweep", "netlist": "{path}", "top": 3, "chunk_sites": 2, "progress": true"#
        ),
        format!(r#""id": "j", "op": "site", "netlist": "{path}", "node": "u""#),
        format!(
            r#""id": "j", "op": "monte_carlo", "netlist": "{path}", "node": "a", "target_error": 0.04, "seed": 11"#
        ),
        format!(
            r#""id": "j", "op": "multi_cycle", "netlist": "{dff_path}", "node": "u", "cycles": 3, "monte_carlo": {{"runs": 100000, "target_error": 0.05, "seed": 7}}"#
        ),
    ];
    for job in &jobs {
        let solo = run_lines(&fresh_engine(), vec![format!("{{\"v\": 2, {job}}}")]);
        let mut batch = run_lines(
            &fresh_engine(),
            vec![format!(
                r#"{{"v": 2, "id": "b", "op": "batch", "jobs": [{{{job}}}]}}"#
            )],
        );
        let summary = json::parse_value(&batch.pop().unwrap()).unwrap();
        assert_eq!(summary.get("op").and_then(JsonValue::as_str), Some("batch"));
        assert_eq!(summary.get("errors").and_then(JsonValue::as_count), Some(0));
        let masked = |frames: &[String]| frames.iter().map(|f| mask_timing(f)).collect::<Vec<_>>();
        assert_eq!(masked(&solo), masked(&batch), "{job}");
        assert_eq!(frame_kind(solo.last().unwrap()).as_deref(), Some("result"));
        if !job.contains("\"site\"") {
            assert!(
                solo.iter()
                    .any(|f| frame_kind(f).as_deref() == Some("progress")),
                "{job} streams progress: {solo:?}"
            );
        }
    }

    // A resolution error: the solo op and the batch answer with the
    // same error frame (neither names an id, so both echo `null`).
    let job = format!(r#""op": "site", "netlist": "{path}", "node": "no_such_node""#);
    let solo = run_lines(&fresh_engine(), vec![format!("{{\"v\": 2, {job}}}")]);
    let batch = run_lines(
        &fresh_engine(),
        vec![format!(r#"{{"v": 2, "op": "batch", "jobs": [{{{job}}}]}}"#)],
    );
    assert_eq!(solo, batch);
    assert_eq!(error_code(&solo[0]).as_deref(), Some("not_found"));
    let _ = std::fs::remove_file(&netlist);
    let _ = std::fs::remove_file(&dff_netlist);
}

/// A line source the test feeds interactively; `None` through the
/// channel ends the connection.
struct ChannelLines(std::sync::mpsc::Receiver<Option<String>>);

impl LineStream for ChannelLines {
    fn next_line(&mut self) -> io::Result<Option<String>> {
        Ok(self.0.recv().unwrap_or(None))
    }
}

/// A frame sink that forwards every complete line to the test thread
/// the moment it is written.
struct FrameTap {
    buf: Vec<u8>,
    out: std::sync::mpsc::Sender<String>,
}

impl Write for FrameTap {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.buf.extend_from_slice(buf);
        while let Some(nl) = self.buf.iter().position(|&b| b == b'\n') {
            let line: Vec<u8> = self.buf.drain(..=nl).collect();
            let _ = self
                .out
                .send(String::from_utf8(line).unwrap().trim_end().to_owned());
        }
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

#[test]
fn cancel_races_cleanly_with_completion_and_leaves_the_session_clean() {
    // A synthesized ~1k-gate circuit: enough sweep parts that a cancel
    // synchronized on the first progress frame lands mid-flight.
    let circuit = ser_suite::gen::synthesize(&ser_suite::gen::profile("s953").unwrap(), 3);
    let mut path = std::env::temp_dir();
    path.push(format!(
        "ser_protocol_{}_cancelrace.bench",
        std::process::id()
    ));
    std::fs::write(&path, ser_suite::netlist::write_bench(&circuit)).unwrap();
    let bench = path.to_str().unwrap().to_owned();

    let engine = Arc::new(engine());
    let (line_tx, line_rx) = std::sync::mpsc::channel::<Option<String>>();
    let (frame_tx, frame_rx) = std::sync::mpsc::channel::<String>();
    let server = {
        let engine = Arc::clone(&engine);
        std::thread::spawn(move || {
            engine
                .serve_connection(Connection {
                    lines: Box::new(ChannelLines(line_rx)),
                    sink: FrameSink::new(FrameTap {
                        buf: Vec::new(),
                        out: frame_tx,
                    }),
                    peer: "race-a".to_owned(),
                })
                .expect("in-memory I/O");
        })
    };

    line_tx
        .send(Some(format!(
            r#"{{"v": 2, "id": "big", "op": "sweep", "netlist": "{bench}", "top": 0, "progress": true}}"#
        )))
        .unwrap();
    // Deterministic synchronization: wait for the sweep to prove it is
    // running (first progress frame), then cancel from a second
    // connection. No sleeps anywhere.
    let mut seen = Vec::new();
    loop {
        let frame = frame_rx.recv().expect("sweep produced no frames");
        let kind = frame_kind(&frame);
        seen.push(frame);
        if kind.as_deref() == Some("progress") {
            break;
        }
        assert!(
            !matches!(kind.as_deref(), Some("result") | Some("error")),
            "finished before first progress: {seen:?}"
        );
    }
    let cancel_replies = run_lines(
        &engine,
        vec![r#"{"v": 2, "id": "c", "op": "cancel", "target": "big"}"#.to_owned()],
    );
    let v = json::parse_value(&cancel_replies[0]).unwrap();
    // Found unless the sweep won the race and already deregistered;
    // either way the frame is well-formed and nothing hangs.
    let found = matches!(v.get("found"), Some(&JsonValue::Bool(true)));

    line_tx.send(None).unwrap();
    drop(line_tx);
    let mut terminal = None;
    for frame in frame_rx.iter() {
        let kind = frame_kind(&frame);
        if matches!(kind.as_deref(), Some("result") | Some("error")) {
            terminal = Some(frame);
        }
    }
    server.join().unwrap();
    let terminal = terminal.expect("sweep must answer with a terminal frame");
    match frame_kind(&terminal).as_deref() {
        Some("error") => {
            assert_eq!(error_code(&terminal).as_deref(), Some("cancelled"));
            assert!(found, "an in-flight sweep is registered until it ends");
        }
        Some("result") => {} // completion won the race — equally legal
        other => panic!("unexpected terminal frame {other:?}: {terminal}"),
    }

    // Invariants either way: permit released, registry empty.
    assert_eq!(engine.inflight_active(), 0);
    assert_eq!(engine.cancel_registrations(), 0);

    // The warm session is untouched: the same sweep re-issued now is
    // bit-identical to the same request served by a fresh engine.
    let rerun = format!(
        r#"{{"v": 2, "id": "r", "op": "sweep", "netlist": "{bench}", "top": 0, "chunk_sites": 4096}}"#
    );
    let warm = run_lines(&engine, vec![rerun.clone()]);
    let fresh_engine = engine_with(EngineConfig::default());
    let fresh = run_lines(&fresh_engine, vec![rerun]);
    let chunk_of = |replies: &[String]| -> String {
        let line = replies
            .iter()
            .find(|l| frame_kind(l).as_deref() == Some("chunk"))
            .unwrap_or_else(|| panic!("no chunk frame: {replies:?}"))
            .clone();
        line
    };
    assert_eq!(
        chunk_of(&warm),
        chunk_of(&fresh),
        "post-cancel sweep differs"
    );

    let _ = std::fs::remove_file(&path);
}

#[test]
fn cancel_mid_sweep_on_s9234_aborts_promptly_and_leaves_the_session_warm() {
    // The acceptance circuit: ~5.8k sites means the sweep runs for
    // seconds in debug builds, so — unlike the race test above — the
    // cancel *must* win, and the terminal frame must be the
    // `cancelled` error. Latency from cancel to that frame is a couple
    // of part boundaries (~ms at 4-site parts; the release-mode
    // `service_bench` tracks the <50 ms wire contract as
    // `cancel_latency_ms`); the bound here is deliberately loose so a
    // loaded CI host cannot flake it, while still proving the abort
    // beat the multi-second uncancelled run by an order of magnitude.
    let circuit = ser_suite::gen::synthesize(&ser_suite::gen::profile("s9234").unwrap(), 1);
    let mut path = std::env::temp_dir();
    path.push(format!("ser_protocol_{}_s9234.bench", std::process::id()));
    std::fs::write(&path, ser_suite::netlist::write_bench(&circuit)).unwrap();
    let bench = path.to_str().unwrap().to_owned();

    let engine = Arc::new(engine());
    let (line_tx, line_rx) = std::sync::mpsc::channel::<Option<String>>();
    let (frame_tx, frame_rx) = std::sync::mpsc::channel::<String>();
    let server = {
        let engine = Arc::clone(&engine);
        std::thread::spawn(move || {
            engine
                .serve_connection(Connection {
                    lines: Box::new(ChannelLines(line_rx)),
                    sink: FrameSink::new(FrameTap {
                        buf: Vec::new(),
                        out: frame_tx,
                    }),
                    peer: "s9234-a".to_owned(),
                })
                .expect("in-memory I/O");
        })
    };

    line_tx
        .send(Some(format!(
            r#"{{"v": 2, "id": "big", "op": "sweep", "netlist": "{bench}", "top": 0, "progress": true}}"#
        )))
        .unwrap();
    loop {
        let frame = frame_rx.recv().expect("sweep produced no frames");
        match frame_kind(&frame).as_deref() {
            Some("progress") => break,
            Some("result") | Some("error") => panic!("finished before first progress: {frame}"),
            _ => {}
        }
    }
    let t = std::time::Instant::now();
    let cancel_replies = run_lines(
        &engine,
        vec![r#"{"v": 2, "id": "c", "op": "cancel", "target": "big"}"#.to_owned()],
    );
    let v = json::parse_value(&cancel_replies[0]).unwrap();
    assert!(
        matches!(v.get("found"), Some(&JsonValue::Bool(true))),
        "a seconds-long sweep is still registered: {}",
        cancel_replies[0]
    );
    let terminal = loop {
        let frame = frame_rx.recv().expect("cancelled sweep must answer");
        if matches!(
            frame_kind(&frame).as_deref(),
            Some("result") | Some("error")
        ) {
            break frame;
        }
    };
    let latency = t.elapsed();
    assert_eq!(
        frame_kind(&terminal).as_deref(),
        Some("error"),
        "{terminal}"
    );
    assert_eq!(error_code(&terminal).as_deref(), Some("cancelled"));
    assert!(
        latency < std::time::Duration::from_millis(1000),
        "cancel took {latency:?} to land"
    );
    line_tx.send(None).unwrap();
    drop(line_tx);
    server.join().unwrap();
    assert_eq!(engine.inflight_active(), 0);
    assert_eq!(engine.cancel_registrations(), 0);

    // The warm session is untouched: a single-site request now answers
    // bit-identically to a direct in-process session.
    let replies = run_lines(
        &engine,
        vec![format!(
            r#"{{"v": 2, "id": "w", "op": "site", "netlist": "{bench}", "node": "{}"}}"#,
            circuit.node(circuit.node_ids().next().unwrap()).name()
        )],
    );
    assert!(
        replies[0].contains("\"warm\": true"),
        "cancel evicted the session: {}",
        replies[0]
    );
    let _ = std::fs::remove_file(&path);
}

#[test]
fn error_paths_never_leak_permits_or_registrations() {
    let netlist = write_netlist("permits");
    let path = netlist.to_str().unwrap();
    let engine = engine();
    for line in [
        // Load failure.
        r#"{"v": 2, "id": "p0", "op": "sweep", "netlist": "/nonexistent/x.bench"}"#.to_owned(),
        // Name-resolution failure.
        format!(r#"{{"v": 2, "id": "p1", "op": "site", "netlist": "{path}", "node": "ghost"}}"#),
        // Expired deadline.
        format!(
            r#"{{"v": 2, "id": "p2", "op": "site", "netlist": "{path}", "node": "y", "deadline_ms": 0}}"#
        ),
        // Parse failure.
        r#"{"v": 2, "op": "site"}"#.to_owned(),
        // Success for contrast.
        format!(r#"{{"v": 2, "id": "p3", "op": "site", "netlist": "{path}", "node": "y"}}"#),
        // Batch rejected up front.
        format!(
            r#"{{"v": 2, "id": "p4", "op": "batch", "jobs": [{{"op": "site", "netlist": "{path}", "node": "ghost"}}]}}"#
        ),
    ] {
        let replies = run_lines(&engine, vec![line.clone()]);
        assert!(!replies.is_empty(), "no reply to {line}");
        assert_eq!(engine.inflight_active(), 0, "permit leaked by {line}");
        assert_eq!(
            engine.cancel_registrations(),
            0,
            "registration leaked by {line}"
        );
    }
    let _ = std::fs::remove_file(&netlist);
}

/// Like [`FrameTap`], but parks the writing thread on the first
/// `progress` frame until the test opens the gate — which holds that
/// request in flight deterministically, with no timing assumptions.
struct GatedTap {
    buf: Vec<u8>,
    out: std::sync::mpsc::Sender<String>,
    gate: Option<std::sync::mpsc::Receiver<()>>,
}

impl Write for GatedTap {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.buf.extend_from_slice(buf);
        while let Some(nl) = self.buf.iter().position(|&b| b == b'\n') {
            let line: Vec<u8> = self.buf.drain(..=nl).collect();
            let line = String::from_utf8(line).unwrap().trim_end().to_owned();
            let progress = frame_kind(&line).as_deref() == Some("progress");
            let _ = self.out.send(line);
            if progress {
                if let Some(gate) = self.gate.take() {
                    let _ = gate.recv();
                }
            }
        }
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

#[test]
fn a_live_request_id_is_refused_until_its_request_ends() {
    let circuit = ser_suite::gen::synthesize(&ser_suite::gen::profile("s9234").unwrap(), 1);
    let mut path = std::env::temp_dir();
    path.push(format!("ser_protocol_{}_sameid.bench", std::process::id()));
    std::fs::write(&path, ser_suite::netlist::write_bench(&circuit)).unwrap();
    let bench = path.to_str().unwrap().to_owned();
    let node = circuit.node(circuit.node_ids().next().unwrap()).name();
    let sweep = format!(
        r#"{{"v": 2, "id": "X", "op": "sweep", "netlist": "{bench}", "top": 3, "chunk_sites": 8192, "progress": true}}"#
    );
    let site =
        format!(r#"{{"v": 2, "id": "X", "op": "site", "netlist": "{bench}", "node": "{node}"}}"#);

    // A: a long sweep under id X, held in flight at its first progress
    // frame. A permit limit makes the gate count holders.
    let engine = Arc::new(engine_with(EngineConfig {
        max_inflight: 4,
        ..EngineConfig::default()
    }));
    let (line_tx, line_rx) = std::sync::mpsc::channel::<Option<String>>();
    let (frame_tx, frame_rx) = std::sync::mpsc::channel::<String>();
    let (gate_tx, gate_rx) = std::sync::mpsc::channel::<()>();
    let server = {
        let engine = Arc::clone(&engine);
        std::thread::spawn(move || {
            engine
                .serve_connection(Connection {
                    lines: Box::new(ChannelLines(line_rx)),
                    sink: FrameSink::new(GatedTap {
                        buf: Vec::new(),
                        out: frame_tx,
                        gate: Some(gate_rx),
                    }),
                    peer: "same-id-a".to_owned(),
                })
                .expect("in-memory I/O");
        })
    };
    line_tx.send(Some(sweep.clone())).unwrap();
    let mut a_frames = Vec::new();
    loop {
        let frame = frame_rx.recv().expect("sweep produced no frames");
        let kind = frame_kind(&frame);
        a_frames.push(frame);
        match kind.as_deref() {
            Some("progress") => break,
            Some("result") | Some("error") => {
                panic!("finished before first progress: {a_frames:?}")
            }
            _ => {}
        }
    }
    assert_eq!(engine.cancel_registrations(), 1, "A holds X");

    // B reuses X — alone, and as a batch job id — and is refused with a
    // structured error before any work.
    let refused = run_lines(
        &engine,
        vec![
            site.clone(),
            format!(
                r#"{{"v": 2, "id": "Y", "op": "batch", "jobs": [{{"id": "X", "op": "site", "netlist": "{bench}", "node": "{node}"}}]}}"#
            ),
        ],
    );
    assert_eq!(refused.len(), 2, "{refused:?}");
    for (line, id) in refused.iter().zip(["X", "Y"]) {
        assert_eq!(error_code(line).as_deref(), Some("bad_request"), "{line}");
        let v = json::parse_value(line).unwrap();
        assert_eq!(v.get("id").and_then(JsonValue::as_str), Some(id));
    }
    assert_eq!(
        engine.cancel_registrations(),
        1,
        "refusals register nothing"
    );
    assert_eq!(engine.inflight_active(), 1, "refusals take no permit");

    // Release A; it completes untouched.
    gate_tx.send(()).unwrap();
    let terminal = loop {
        let frame = frame_rx.recv().expect("sweep must answer");
        let kind = frame_kind(&frame);
        a_frames.push(frame.clone());
        if matches!(kind.as_deref(), Some("result") | Some("error")) {
            break frame;
        }
    };
    assert_eq!(
        frame_kind(&terminal).as_deref(),
        Some("result"),
        "{terminal}"
    );
    line_tx.send(None).unwrap();
    server.join().unwrap();

    // A's values are bit-identical to the same sweep run solo.
    let solo = run_lines(&engine_with(EngineConfig::default()), vec![sweep]);
    let chunks = |frames: &[String]| -> Vec<String> {
        frames
            .iter()
            .filter(|l| frame_kind(l).as_deref() == Some("chunk"))
            .cloned()
            .collect()
    };
    assert!(!chunks(&a_frames).is_empty());
    assert_eq!(chunks(&a_frames), chunks(&solo), "A was perturbed");
    let total = |line: &str| {
        json::parse_value(line)
            .unwrap()
            .get("total_p_sensitized")
            .and_then(JsonValue::as_f64)
            .unwrap()
            .to_bits()
    };
    assert_eq!(total(&terminal), total(solo.last().unwrap()));

    // X is free again once A has finished.
    let again = run_lines(&engine, vec![site]);
    assert_eq!(
        frame_kind(&again[0]).as_deref(),
        Some("result"),
        "{again:?}"
    );
    assert_eq!(engine.cancel_registrations(), 0);
    assert_eq!(engine.inflight_active(), 0);
    let _ = std::fs::remove_file(&path);
}
