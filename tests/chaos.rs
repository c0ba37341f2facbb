//! Chaos tests: the full service stack driven through deterministic
//! fault schedules — torn byte-level writes, disconnects planted at
//! every frame boundary, injected read errors, cancel-vs-complete
//! races — asserting the three robustness invariants:
//!
//! 1. the server never hangs (every `serve` call here returns),
//! 2. nothing leaks (no in-flight permit, no cancel registration
//!    survives a faulted connection),
//! 3. survivors are untouched (a clean connection's frames are
//!    bit-identical to the same request on an unfaulted engine, even
//!    while a sibling connection is being torn apart).
//!
//! Every schedule is seeded and fixed: a failure here is a
//! reproducer, not a flake. The seed matrix below is the one CI's
//! chaos step runs.

use std::io::{self, Write};
use std::path::PathBuf;
use std::sync::{Arc, Mutex};

use ser_suite::service::json::{self, JsonValue};
use ser_suite::service::{
    serve, Connection, EngineConfig, FrameSink, LineStream, ProtocolEngine, SerService,
    SerServiceConfig, Transport,
};

mod support;
use support::chaos::{ChaosSchedule, ChaosTransport};

/// The fixed fault-seed matrix (also exercised by the CI chaos step).
const SEEDS: [u64; 3] = [11, 0xA5A5, 987_654_321];

// ---------------------------------------------------------------------
// Harness: scripted in-memory connections behind a real Transport
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

/// A transport that yields each scripted connection once, then ends.
struct ScriptTransport(std::vec::IntoIter<Connection>);

impl Transport for ScriptTransport {
    fn accept(&mut self) -> io::Result<Option<Connection>> {
        Ok(self.0.next())
    }
}

fn conn(lines: Vec<String>) -> (Connection, Arc<Mutex<Vec<u8>>>) {
    let buffer = Arc::new(Mutex::new(Vec::new()));
    (
        Connection {
            lines: Box::new(ScriptLines(lines.into_iter())),
            sink: FrameSink::new(Capture(Arc::clone(&buffer))),
            peer: "chaos".to_owned(),
        },
        buffer,
    )
}

fn engine() -> Arc<ProtocolEngine> {
    Arc::new(ProtocolEngine::new(
        Arc::new(SerService::new(SerServiceConfig {
            max_sessions: 4,
            threads: 2,
            sweep_batch_sites: 4,
            ..SerServiceConfig::default()
        })),
        EngineConfig::default(),
    ))
}

fn write_netlist(name: &str) -> PathBuf {
    let mut path = std::env::temp_dir();
    path.push(format!("ser_chaos_{}_{name}.bench", std::process::id()));
    std::fs::write(
        &path,
        "INPUT(a)\nINPUT(b)\nINPUT(c)\nOUTPUT(y)\nu = AND(a, b)\ny = OR(u, c)\n",
    )
    .unwrap();
    path
}

fn lines_of(buffer: &Arc<Mutex<Vec<u8>>>) -> Vec<String> {
    let bytes = buffer.lock().unwrap().clone();
    // Chaos may tear a connection mid-frame, leaving a trailing
    // fragment and possibly a split multi-byte character; lossy is the
    // honest read of what a client would have seen.
    String::from_utf8_lossy(&bytes)
        .lines()
        .map(str::to_owned)
        .collect()
}

fn frame_kind(line: &str) -> Option<String> {
    json::parse_value(line)
        .ok()?
        .get("frame")
        .and_then(JsonValue::as_str)
        .map(str::to_owned)
}

/// The deterministic frames of a reply, from the frame kind on: chunk
/// frames carry only wire values (no wall-clock field), so they compare
/// bit-for-bit — across requests too, since the request id is cut off.
fn chunk_frames(lines: &[String]) -> Vec<String> {
    lines
        .iter()
        .filter(|l| frame_kind(l).as_deref() == Some("chunk"))
        .filter_map(|l| {
            l.split_once(", \"frame\": ")
                .map(|(_, rest)| rest.to_owned())
        })
        .collect()
}

/// Serves `conns` (the first `schedules.len()` of them faulted) on one
/// engine and asserts the no-leak invariants afterwards.
fn serve_with_faults(
    engine: &Arc<ProtocolEngine>,
    conns: Vec<Connection>,
    schedules: Vec<ChaosSchedule>,
) {
    let mut transport = ChaosTransport::new(ScriptTransport(conns.into_iter()), schedules);
    serve(&mut transport, engine).expect("serve survives chaos");
    assert_eq!(engine.inflight_active(), 0, "leaked in-flight permit");
    assert_eq!(engine.cancel_registrations(), 0, "leaked cancel token");
}

// ---------------------------------------------------------------------
// Write faults
// ---------------------------------------------------------------------

#[test]
fn disconnects_at_every_frame_boundary_never_leak_or_taint_survivors() {
    let netlist = write_netlist("boundaries");
    let path = netlist.to_str().unwrap();
    // Ids are unique among in-flight requests, so every connection gets
    // its own — one character long, so every reply has the reference's
    // frame byte boundaries.
    let request = |id: char| {
        format!(
            r#"{{"v": 2, "id": "{id}", "op": "sweep", "netlist": "{path}", "top": 0, "chunk_sites": 2}}"#
        )
    };

    // Reference reply from an unfaulted engine: 3 chunk frames + result.
    let reference = {
        let engine = engine();
        let (c, buffer) = conn(vec![request('q')]);
        serve_with_faults(&engine, vec![c], Vec::new());
        lines_of(&buffer)
    };
    assert_eq!(reference.len(), 4, "{reference:?}");
    let reference_chunks = chunk_frames(&reference);
    assert_eq!(reference_chunks.len(), 3);

    // Every frame boundary (and frame start) gets a connection whose
    // write side dies exactly there; one clean survivor rides along.
    let mut boundaries = vec![0u64];
    let mut total = 0u64;
    for line in &reference {
        total += line.len() as u64 + 1;
        boundaries.push(total);
    }
    for seed in SEEDS {
        let engine = engine();
        let mut conns = Vec::new();
        let mut schedules = Vec::new();
        let mut buffers = Vec::new();
        for (&at, id) in boundaries.iter().zip('a'..) {
            let (c, buffer) = conn(vec![request(id)]);
            conns.push(c);
            buffers.push(buffer);
            schedules.push(
                ChaosSchedule::new(seed ^ at)
                    .split_writes()
                    .tear_write_after_bytes(at),
            );
        }
        let (survivor, survivor_buffer) = conn(vec![request('s')]);
        conns.push(survivor);
        serve_with_faults(&engine, conns, schedules);

        // Faulted connections saw at most their tear budget.
        for (buffer, &at) in buffers.iter().zip(&boundaries) {
            assert!(buffer.lock().unwrap().len() as u64 <= at, "seed {seed}");
        }
        // The survivor — and a post-chaos rerun on the same warm
        // engine — are bit-identical to the reference.
        assert_eq!(
            chunk_frames(&lines_of(&survivor_buffer)),
            reference_chunks,
            "seed {seed}: survivor tainted"
        );
        let (rerun, rerun_buffer) = conn(vec![request('q')]);
        serve_with_faults(&engine, vec![rerun], Vec::new());
        assert_eq!(
            chunk_frames(&lines_of(&rerun_buffer)),
            reference_chunks,
            "seed {seed}: warm session tainted"
        );
    }
    let _ = std::fs::remove_file(&netlist);
}

#[test]
fn byte_shredded_writes_deliver_frames_intact() {
    let netlist = write_netlist("shred");
    let path = netlist.to_str().unwrap();
    // The error message for a bad chunk_sites contains `≥` — a
    // multi-byte character the splitter will tear across writes.
    let lines = vec![
        format!(r#"{{"v": 2, "id": "e", "op": "sweep", "netlist": "{path}", "chunk_sites": 0}}"#),
        format!(
            r#"{{"v": 2, "id": "q", "op": "sweep", "netlist": "{path}", "top": 0, "chunk_sites": 2}}"#
        ),
    ];
    let reference = {
        let engine = engine();
        let (c, buffer) = conn(lines.clone());
        serve_with_faults(&engine, vec![c], Vec::new());
        lines_of(&buffer)
    };
    for seed in SEEDS {
        let engine = engine();
        let (c, buffer) = conn(lines.clone());
        serve_with_faults(
            &engine,
            vec![c],
            vec![ChaosSchedule::new(seed).split_writes()],
        );
        let shredded = lines_of(&buffer);
        assert_eq!(shredded.len(), reference.len(), "seed {seed}");
        // Every frame reassembles byte-perfect despite 1–3-byte
        // writes, including the multi-byte `≥` in the error frame.
        assert!(shredded[0].contains('≥'), "seed {seed}: {}", shredded[0]);
        assert_eq!(
            chunk_frames(&shredded),
            chunk_frames(&reference),
            "seed {seed}"
        );
    }
    let _ = std::fs::remove_file(&netlist);
}

// ---------------------------------------------------------------------
// Read faults
// ---------------------------------------------------------------------

#[test]
fn read_errors_and_early_eofs_close_cleanly() {
    let netlist = write_netlist("readfault");
    let path = netlist.to_str().unwrap();
    let request = |id: &str| {
        format!(
            r#"{{"v": 2, "id": "{id}", "op": "sweep", "netlist": "{path}", "top": 0, "chunk_sites": 2}}"#
        )
    };
    for seed in SEEDS {
        for cut in 0..3usize {
            let engine = engine();
            // One connection dies with a reset after `cut` lines, one
            // hangs up early, one stays clean.
            let (reset, _) = conn((0..3).map(|i| request(&format!("r{i}"))).collect());
            let (eof, eof_buffer) = conn((0..3).map(|i| request(&format!("d{i}"))).collect());
            let (clean, clean_buffer) = conn(vec![request("ok")]);
            serve_with_faults(
                &engine,
                vec![reset, eof, clean],
                vec![
                    ChaosSchedule::new(seed).read_error_after_lines(cut),
                    ChaosSchedule::new(seed).disconnect_after_lines(cut),
                ],
            );
            // The early-EOF connection answered exactly the lines that
            // got through (4 frames each), then stopped.
            assert_eq!(
                lines_of(&eof_buffer).len(),
                4 * cut,
                "seed {seed} cut {cut}"
            );
            let clean_lines = lines_of(&clean_buffer);
            assert_eq!(clean_lines.len(), 4, "seed {seed} cut {cut}");
            assert_eq!(
                frame_kind(clean_lines.last().unwrap()).as_deref(),
                Some("result")
            );
        }
    }
    let _ = std::fs::remove_file(&netlist);
}

// ---------------------------------------------------------------------
// Cancel-vs-complete races under chaos
// ---------------------------------------------------------------------

#[test]
fn cancel_races_under_chaos_leave_no_leaks_and_clean_survivors() {
    // A ~1k-gate circuit so the raced sweep has real work to cancel.
    let circuit = ser_suite::gen::synthesize(&ser_suite::gen::profile("s953").unwrap(), 5);
    let mut path = std::env::temp_dir();
    path.push(format!("ser_chaos_{}_race.bench", std::process::id()));
    std::fs::write(&path, ser_suite::netlist::write_bench(&circuit)).unwrap();
    let bench = path.to_str().unwrap();
    let sweep = |id: &str| {
        format!(
            r#"{{"v": 2, "id": "{id}", "op": "sweep", "netlist": "{bench}", "top": 0, "chunk_sites": 4096}}"#
        )
    };

    let reference = {
        let engine = engine();
        let (c, buffer) = conn(vec![sweep("raced")]);
        serve_with_faults(&engine, vec![c], Vec::new());
        chunk_frames(&lines_of(&buffer))
    };

    for seed in SEEDS {
        let engine = engine();
        // A: the raced sweep, its write side shredded. B: a barrage of
        // cancels for A's id (connections run concurrently under
        // `serve`, so the cancel lands at a seed-and-scheduler-chosen
        // point: before, during, or after the sweep). C: a clean
        // survivor under its own id — an id names one in-flight
        // request, so the cancels can only ever reach A.
        let (a, a_buffer) = conn(vec![sweep("raced")]);
        let (b, b_buffer) = conn(
            (0..8)
                .map(|i| format!(r#"{{"v": 2, "id": "c{i}", "op": "cancel", "target": "raced"}}"#))
                .collect(),
        );
        let (c, c_buffer) = conn(vec![sweep("survivor")]);
        serve_with_faults(
            &engine,
            vec![a, b, c],
            vec![ChaosSchedule::new(seed).split_writes()],
        );

        // Every cancel answered with a well-formed result frame,
        // whether or not it found its target.
        let cancels = lines_of(&b_buffer);
        assert_eq!(cancels.len(), 8, "seed {seed}");
        for line in &cancels {
            assert_eq!(frame_kind(line).as_deref(), Some("result"), "seed {seed}");
        }
        // A ended in exactly one terminal frame: a full result or a
        // `cancelled` error. Both are legal; hanging or leaking is not.
        let a_lines = lines_of(&a_buffer);
        let last = a_lines.last().expect("raced sweep answered");
        match frame_kind(last).as_deref() {
            Some("result") => assert_eq!(chunk_frames(&a_lines), reference, "seed {seed}"),
            Some("error") => {
                let v = json::parse_value(last).unwrap();
                assert_eq!(
                    v.get("error")
                        .and_then(|e| e.get("code"))
                        .and_then(JsonValue::as_str),
                    Some("cancelled"),
                    "seed {seed}: {last}"
                );
            }
            other => panic!("seed {seed}: unexpected terminal frame {other:?}: {last}"),
        }
        // The survivor and a warm rerun are never tainted by the race.
        assert_eq!(chunk_frames(&lines_of(&c_buffer)), reference, "seed {seed}");
        let (rerun, rerun_buffer) = conn(vec![sweep("raced")]);
        serve_with_faults(&engine, vec![rerun], Vec::new());
        assert_eq!(
            chunk_frames(&lines_of(&rerun_buffer)),
            reference,
            "seed {seed}: warm session tainted by cancel race"
        );
    }
    let _ = std::fs::remove_file(&path);
}
