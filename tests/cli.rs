//! End-to-end tests of the `ser-cli` binary: generate a benchmark,
//! inspect it, analyze it, convert it — the workflows a downstream user
//! runs first.

use std::path::PathBuf;
use std::process::Command;

fn cli() -> Command {
    Command::new(env!("CARGO_BIN_EXE_ser-cli"))
}

fn temp_path(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("ser_cli_test_{}_{name}", std::process::id()));
    p
}

#[test]
fn gen_info_analyze_epp_pipeline() {
    let bench = temp_path("s298.bench");

    // gen: write a synthetic benchmark.
    let out = cli()
        .args(["gen", "s298", "--seed", "3", "-o"])
        .arg(&bench)
        .output()
        .expect("binary runs");
    assert!(out.status.success(), "gen failed: {out:?}");

    // info: structural summary mentions the counts.
    let out = cli().arg("info").arg(&bench).output().unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("119 gates"), "info said: {text}");
    assert!(text.contains("14 DFF"), "info said: {text}");

    // analyze: produces a ranking and a total.
    let out = cli()
        .args(["analyze"])
        .arg(&bench)
        .args(["--top", "5", "--threads", "1"])
        .output()
        .unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("total SER"), "analyze said: {text}");

    // epp: per-site detail for a named node.
    let out = cli().args(["epp"]).arg(&bench).arg("G0").output().unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("P_sensitized"), "epp said: {text}");

    let _ = std::fs::remove_file(&bench);
}

/// `advise` re-ranks after every edit, so a later round can pick a
/// voter an earlier round inserted (it keeps the hardened gate's name);
/// hardening it again must not collide on replica names. On s1423
/// seed 1 round 2 picks such a voter.
#[test]
fn advise_runs_every_round() {
    let bench = temp_path("s1423.bench");
    let out = cli()
        .args(["gen", "s1423", "--seed", "1", "-o"])
        .arg(&bench)
        .output()
        .expect("binary runs");
    assert!(out.status.success(), "gen failed: {out:?}");
    let out = cli()
        .arg("advise")
        .arg(&bench)
        .args(["--rounds", "5", "--threads", "2"])
        .output()
        .unwrap();
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "advise failed: {out:?}");
    assert!(
        text.contains("after 5 hardening edits"),
        "advise said: {text}"
    );
    // Each round hardens a different gate of the loaded netlist: a
    // voter keeps its gate's name and is never picked again.
    let mut gates: Vec<&str> = text
        .lines()
        .filter_map(|line| {
            let mut cols = line.split_whitespace();
            cols.next()?.parse::<usize>().ok()?;
            cols.next()
        })
        .collect();
    assert_eq!(gates.len(), 5, "advise said: {text}");
    gates.sort_unstable();
    gates.dedup();
    assert_eq!(gates.len(), 5, "a gate was hardened twice: {text}");
    assert!(
        text.contains("budget spent 5.00 of unbounded"),
        "advise said: {text}"
    );
    let _ = std::fs::remove_file(&bench);
}

#[test]
fn convert_round_trips_formats() {
    let bench = temp_path("rt.bench");
    let verilog = temp_path("rt.v");
    let back = temp_path("rt2.bench");

    std::fs::write(
        &bench,
        "INPUT(a)\nINPUT(b)\nOUTPUT(y)\nu = NAND(a, b)\ny = XOR(u, a)\n",
    )
    .unwrap();

    let out = cli()
        .arg("convert")
        .arg(&bench)
        .arg(&verilog)
        .output()
        .unwrap();
    assert!(out.status.success(), "to verilog failed: {out:?}");
    let vtext = std::fs::read_to_string(&verilog).unwrap();
    // The module is named after the input file stem.
    assert!(vtext.starts_with("module "), "verilog: {vtext}");
    assert!(vtext.contains("nand"), "verilog: {vtext}");

    let out = cli()
        .arg("convert")
        .arg(&verilog)
        .arg(&back)
        .output()
        .unwrap();
    assert!(out.status.success(), "to bench failed: {out:?}");
    let btext = std::fs::read_to_string(&back).unwrap();
    assert!(btext.contains("NAND"), "bench: {btext}");

    for p in [&bench, &verilog, &back] {
        let _ = std::fs::remove_file(p);
    }
}

#[test]
fn bad_usage_fails_with_message() {
    let out = cli().output().unwrap();
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("usage"), "stderr: {err}");

    let out = cli().args(["gen", "not-a-profile"]).output().unwrap();
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown profile"), "stderr: {err}");

    let out = cli()
        .args(["info", "/nonexistent/x.bench"])
        .output()
        .unwrap();
    assert!(!out.status.success());
}

/// A reader that closes the pipe early (`ser-cli ... | head -1`) ends
/// the command quietly and successfully, never with a panic (exit
/// 101). `gen` without `-o` prints far more than a pipe buffer holds,
/// so the write meets the closed pipe whatever the timing; `analyze`
/// is read for one line and then cut off.
#[test]
fn closed_stdout_is_a_quiet_success() {
    use std::io::{BufRead, BufReader};
    use std::process::Stdio;

    let mut child = cli()
        .args(["gen", "s9234"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("binary runs");
    drop(child.stdout.take());
    let out = child.wait_with_output().unwrap();
    assert_ne!(out.status.code(), Some(101), "gen panicked: {out:?}");
    assert!(out.status.success(), "gen: {out:?}");
    assert!(out.stderr.is_empty(), "gen: {out:?}");

    let bench = temp_path("closed_pipe.bench");
    let out = cli()
        .args(["gen", "s1423", "-o"])
        .arg(&bench)
        .output()
        .unwrap();
    assert!(out.status.success(), "gen failed: {out:?}");
    let mut child = cli()
        .arg("analyze")
        .arg(&bench)
        .args(["--top", "1000", "--threads", "2"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    let mut first = String::new();
    BufReader::new(child.stdout.take().unwrap())
        .read_line(&mut first)
        .unwrap();
    assert!(first.starts_with("analyzed"), "first line: {first}");
    let out = child.wait_with_output().unwrap();
    assert_ne!(out.status.code(), Some(101), "analyze panicked: {out:?}");
    assert!(out.status.success(), "analyze: {out:?}");
    let _ = std::fs::remove_file(&bench);
}

#[test]
fn batch_on_a_closed_stdout_is_a_quiet_success() {
    use std::io::{BufRead, BufReader};
    use std::process::Stdio;

    let bench = temp_path("closed_pipe_batch.bench");
    let jobs = temp_path("closed_pipe_jobs.jsonl");
    let out = cli()
        .args(["gen", "s298", "--seed", "3", "-o"])
        .arg(&bench)
        .output()
        .unwrap();
    assert!(out.status.success(), "gen failed: {out:?}");
    // Far more reply bytes than a pipe buffers, so the replies after
    // the reader leaves must hit the closed pipe.
    let line = format!(
        "{{\"v\": 2, \"op\": \"site\", \"netlist\": \"{}\", \"node\": \"G0\"}}\n",
        bench.to_str().unwrap()
    );
    std::fs::write(&jobs, line.repeat(4_000)).unwrap();

    let mut child = cli()
        .arg("batch")
        .arg(&jobs)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    let mut first = String::new();
    BufReader::new(child.stdout.take().unwrap())
        .read_line(&mut first)
        .unwrap();
    assert!(
        first.contains("\"frame\": \"result\""),
        "first line: {first}"
    );
    let out = child.wait_with_output().unwrap();
    assert_ne!(out.status.code(), Some(101), "batch panicked: {out:?}");
    assert!(out.status.success(), "batch: {out:?}");
    assert!(out.stderr.is_empty(), "batch: {out:?}");
    for p in [&bench, &jobs] {
        let _ = std::fs::remove_file(p);
    }
}

/// A misspelled or retired flag is an error, not a silent default: a
/// typo'd `--thraeds` must not run with the default thread count, and a
/// flag `serve` no longer accepts must not be ignored.
#[test]
fn unknown_flags_are_rejected() {
    let bench = temp_path("flags.bench");
    let out = cli()
        .args(["gen", "s298", "--seed", "3", "-o"])
        .arg(&bench)
        .output()
        .unwrap();
    assert!(out.status.success(), "gen failed: {out:?}");

    let out = cli()
        .arg("analyze")
        .arg(&bench)
        .args(["--thraeds", "2"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.contains("unknown flag --thraeds for analyze"),
        "stderr: {err}"
    );

    let dir = temp_path("flags_dir");
    let out = cli()
        .args(["serve", "--cache-dir"])
        .arg(&dir)
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.contains("unknown flag --cache-dir for serve"),
        "stderr: {err}"
    );

    let _ = std::fs::remove_file(&bench);
}

#[test]
fn batch_serves_envelope_lines_with_warm_reuse() {
    let bench = temp_path("batch_s298.bench");
    let jobs = temp_path("jobs.jsonl");
    let out = cli()
        .args(["gen", "s298", "--seed", "3", "-o"])
        .arg(&bench)
        .output()
        .unwrap();
    assert!(out.status.success(), "gen failed: {out:?}");

    let netlist = bench.to_str().unwrap();
    std::fs::write(
        &jobs,
        format!(
            "# a comment line\n\
             {{\"v\": 2, \"id\": \"s\", \"op\": \"sweep\", \"netlist\": \"{netlist}\", \"top\": 2}}\n\
             \n\
             {{\"v\": 2, \"id\": \"e\", \"op\": \"site\", \"netlist\": \"{netlist}\", \"node\": \"G0\"}}\n\
             {{\"v\": 2, \"id\": \"b\", \"op\": \"batch\", \"jobs\": [\
               {{\"id\": \"m\", \"op\": \"monte_carlo\", \"netlist\": \"{netlist}\", \"node\": \"G0\", \"vectors\": 1000}}, \
               {{\"id\": \"e2\", \"op\": \"site\", \"netlist\": \"{netlist}\", \"node\": \"G1\"}}]}}\n"
        ),
    )
    .unwrap();

    let out = cli()
        .args(["batch"])
        .arg(&jobs)
        .args(["--threads", "2", "--sessions", "2"])
        .output()
        .unwrap();
    assert!(out.status.success(), "batch failed: {out:?}");
    let text = String::from_utf8_lossy(&out.stdout);
    let lines: Vec<&str> = text.lines().collect();
    // Sweep and site: one result frame each; the batch envelope: one
    // result frame per job, then its summary frame.
    assert_eq!(lines.len(), 5, "one frame per reply: {text}");
    assert!(lines[0].contains("\"id\": \"s\""), "{}", lines[0]);
    assert!(lines[0].contains("\"op\": \"sweep\""), "{}", lines[0]);
    assert!(lines[0].contains("\"warm\": false"), "first compiles");
    assert!(lines[1].contains("\"op\": \"site\""), "{}", lines[1]);
    assert!(lines[1].contains("\"warm\": true"), "second is warm");
    assert!(lines[2].contains("\"vectors\": 1000"), "{}", lines[2]);
    assert!(lines[3].contains("\"id\": \"e2\""), "{}", lines[3]);
    assert!(lines[4].contains("\"op\": \"batch\""), "{}", lines[4]);
    assert!(lines[4].contains("\"errors\": 0"), "{}", lines[4]);
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("3 warm hits"), "stats on stderr: {err}");

    // A malformed line is answered with a structured error frame and
    // fails the exit code.
    std::fs::write(&jobs, "{\"v\": 2, \"op\": \"warp\", \"netlist\": \"x\"}\n").unwrap();
    let out = cli().args(["batch"]).arg(&jobs).output().unwrap();
    assert!(!out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("\"code\": \"unknown_op\""), "stdout: {text}");

    for p in [&bench, &jobs] {
        let _ = std::fs::remove_file(p);
    }
}

#[test]
fn batch_exits_nonzero_when_a_job_fails() {
    let good = temp_path("ok.bench");
    let jobs = temp_path("failing_jobs.jsonl");
    std::fs::write(&good, "INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = AND(a, b)\n").unwrap();
    let path = good.to_str().unwrap();
    // The second job parses fine but fails the service's request
    // validation (`vectors` must be ≥ 1) — a serve-time failure, not a
    // parse-time one.
    std::fs::write(
        &jobs,
        format!(
            "{{\"v\": 2, \"id\": \"a\", \"op\": \"sweep\", \"netlist\": \"{path}\", \"top\": 1}}\n\
             {{\"v\": 2, \"id\": \"b\", \"op\": \"monte_carlo\", \"netlist\": \"{path}\", \"node\": \"y\", \"vectors\": 0}}\n"
        ),
    )
    .unwrap();
    let out = cli().args(["batch"]).arg(&jobs).output().unwrap();
    assert!(
        !out.status.success(),
        "a failed job must fail the exit code"
    );
    let text = String::from_utf8_lossy(&out.stdout);
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 2, "both jobs still answered: {text}");
    assert!(lines[0].contains("\"op\": \"sweep\""), "{}", lines[0]);
    // The failure is a structured {code, message} error frame.
    assert!(lines[1].contains("\"frame\": \"error\""), "{}", lines[1]);
    assert!(
        lines[1].contains("\"error\": {\"code\": \"bad_request\""),
        "{}",
        lines[1]
    );
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("1 error frame"), "stderr: {err}");

    for p in [&good, &jobs] {
        let _ = std::fs::remove_file(p);
    }
}

#[test]
fn serve_speaks_the_envelope_protocol_on_stdio() {
    use std::io::{BufRead, BufReader, Write};
    use std::process::Stdio;

    let bench = temp_path("serve.bench");
    std::fs::write(
        &bench,
        "INPUT(a)\nINPUT(b)\nINPUT(c)\nOUTPUT(y)\nu = AND(a, b)\ny = OR(u, c)\n",
    )
    .unwrap();
    let path = bench.to_str().unwrap();

    let mut child = cli()
        .args(["serve", "--threads", "2", "--quota", "5"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("serve starts");
    let mut stdin = child.stdin.take().unwrap();
    let mut stdout = BufReader::new(child.stdout.take().unwrap());
    let read_line = |stdout: &mut BufReader<_>| {
        let mut line = String::new();
        stdout.read_line(&mut line).expect("serve answers");
        line
    };

    // A site envelope compiles the session.
    writeln!(
        stdin,
        "{{\"v\": 2, \"id\": \"r0\", \"op\": \"site\", \"netlist\": \"{path}\", \"node\": \"y\"}}"
    )
    .unwrap();
    stdin.flush().unwrap();
    let site = read_line(&mut stdout);
    assert!(site.contains("\"op\": \"site\""), "{site}");
    assert!(site.contains("\"warm\": false"), "{site}");

    // A sweep envelope: framed result with the echoed id.
    writeln!(
        stdin,
        "{{\"v\": 2, \"id\": \"r1\", \"op\": \"sweep\", \"netlist\": \"{path}\", \"top\": 1}}"
    )
    .unwrap();
    stdin.flush().unwrap();
    let v2 = read_line(&mut stdout);
    assert!(v2.contains("\"frame\": \"result\""), "{v2}");
    assert!(v2.contains("\"id\": \"r1\""), "{v2}");
    assert!(v2.contains("\"warm\": true"), "session stayed warm: {v2}");

    // Structured errors for a bad version and for an unversioned line.
    writeln!(stdin, "{{\"v\": 3, \"op\": \"stats\"}}").unwrap();
    stdin.flush().unwrap();
    let err = read_line(&mut stdout);
    assert!(err.contains("\"code\": \"unsupported_version\""), "{err}");
    writeln!(
        stdin,
        "{{\"op\": \"site\", \"netlist\": \"{path}\", \"node\": \"y\"}}"
    )
    .unwrap();
    stdin.flush().unwrap();
    let err = read_line(&mut stdout);
    assert!(err.contains("\"code\": \"unsupported_version\""), "{err}");

    // EOF ends the server cleanly.
    drop(stdin);
    let status = child.wait().expect("serve exits");
    assert!(status.success(), "serve exits 0 on EOF: {status:?}");
    let _ = std::fs::remove_file(&bench);
}
