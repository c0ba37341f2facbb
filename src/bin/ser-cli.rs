//! `ser-cli` — command-line front end for the SER estimation suite.
//!
//! ```text
//! ser-cli info    <netlist>                   structural summary
//! ser-cli analyze <netlist> [--top N]         whole-circuit SER report
//! ser-cli epp     <netlist> <node>            per-site EPP detail
//! ser-cli advise  <netlist> [--rounds N]      iterative hardening advisor
//! ser-cli batch   <requests.jsonl>            serve a file of v2 envelopes, one per line
//! ser-cli serve   [--tcp ADDR]                protocol server on stdin/stdout or TCP
//! ser-cli gen     <profile> [--seed S] [-o F] emit a synthetic benchmark
//! ser-cli convert <in> <out>                  .bench <-> .v conversion
//! ```
//!
//! Netlists may be ISCAS `.bench` files or structural Verilog (`.v`);
//! the format is chosen by file extension.
//!
//! `serve` speaks the versioned wire protocol documented in
//! [`ser_suite::service::protocol`] — envelope requests, framed
//! streaming replies, structured errors — on stdin/stdout by default
//! or as a TCP daemon with `--tcp ADDR` (optional `--auth-token`,
//! per-client `--quota`, server-wide `--max-inflight`, idle-connection
//! reaping with `--idle-timeout`). `batch` serves a file of the same
//! envelopes, one per line, exactly as `serve` would serve them on
//! stdin: the reply frames go to stdout, and the exit code is non-zero
//! if any `error` frame was written. Put a `batch` envelope in the
//! file to interleave jobs on the executor.
//!
//! Each subcommand accepts only its own flags (the `FLAGS` table); an
//! unknown `--flag` is an error, so a typo never silently falls back to
//! a default.

#![forbid(unsafe_code)]

use std::fs;
use std::io::{self, Write};
use std::process::ExitCode;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use ser_suite::epp::{
    AnalysisSession, CircuitSerAnalysis, Edit, HardeningCost, HardeningPlan, WhatIfSession,
};
use ser_suite::gen::{profile, synthesize};
use ser_suite::netlist::{
    parse_bench, parse_verilog, write_bench, write_verilog, Circuit, CircuitStats,
};
use ser_suite::service::{
    serve, Connection, EngineConfig, FrameSink, ProtocolEngine, SerService, SerServiceConfig,
    StdioTransport, TcpTransport,
};

/// Why a command stopped early.
enum Failure {
    /// A message for standard error; the exit code is 1.
    Message(String),
    /// Standard output was closed before everything was written; the
    /// exit is quiet and successful.
    ClosedPipe,
}

impl From<String> for Failure {
    fn from(msg: String) -> Self {
        Failure::Message(msg)
    }
}

impl From<io::Error> for Failure {
    fn from(e: io::Error) -> Self {
        match e.kind() {
            io::ErrorKind::BrokenPipe => Failure::ClosedPipe,
            _ => Failure::Message(format!("cannot write to standard output: {e}")),
        }
    }
}

/// `println!` through the one standard-output handle, returning a
/// write error from the enclosing command instead of panicking.
macro_rules! say {
    ($($arg:tt)*) => {
        writeln!(io::stdout(), $($arg)*).map_err(Failure::from)?
    };
}

fn load(path: &str) -> Result<Circuit, String> {
    let text = fs::read_to_string(path).map_err(|e| format!("cannot read `{path}`: {e}"))?;
    let stem = std::path::Path::new(path)
        .file_stem()
        .and_then(|s| s.to_str())
        .unwrap_or("circuit");
    if path.ends_with(".v") || path.ends_with(".sv") {
        parse_verilog(&text).map_err(|e| format!("cannot parse `{path}`: {e}"))
    } else {
        parse_bench(&text, stem).map_err(|e| format!("cannot parse `{path}`: {e}"))
    }
}

fn cmd_convert(input: &str, output: &str) -> Result<(), Failure> {
    let c = load(input)?;
    let text = if output.ends_with(".v") || output.ends_with(".sv") {
        write_verilog(&c)
    } else {
        write_bench(&c)
    };
    fs::write(output, text).map_err(|e| format!("cannot write `{output}`: {e}"))?;
    eprintln!("wrote {} ({} nodes) to {output}", c.name(), c.len());
    Ok(())
}

fn cmd_info(path: &str) -> Result<(), Failure> {
    let c = load(path)?;
    let stats = CircuitStats::compute(&c).map_err(|e| e.to_string())?;
    say!("{stats}");
    say!("  gate mix:");
    for (kind, count) in &stats.by_kind {
        say!("    {kind:<6} {count}");
    }
    Ok(())
}

fn cmd_analyze(path: &str, top: usize, threads: usize) -> Result<(), Failure> {
    let c = load(path)?;
    // One compiled session per invocation: topo order, observe points
    // and SP are computed once and shared by the whole sweep.
    let session = AnalysisSession::new(&c).map_err(|e| e.to_string())?;
    let outcome = CircuitSerAnalysis::new()
        .with_threads(threads)
        .run_with_session(&session);
    say!(
        "analyzed {} nodes in {:?} (SP: {:?}, {} of {threads} requested threads used)",
        c.len(),
        outcome.epp_time(),
        outcome.sp_time(),
        outcome.threads_used(),
    );
    say!("total SER (unit models): {:.4}\n", outcome.report().total());
    say!("{:<16} {:>12} {:>12}", "node", "P_sens", "SER");
    say!("{}", "-".repeat(42));
    for e in outcome.report().ranking().iter().take(top) {
        say!(
            "{:<16} {:>12.4} {:>12.4}",
            c.node(e.node).name(),
            e.p_sensitized,
            e.ser
        );
    }
    Ok(())
}

fn cmd_epp(path: &str, node_name: &str) -> Result<(), Failure> {
    let c = load(path)?;
    let site = c
        .find(node_name)
        .ok_or_else(|| format!("no node named `{node_name}` in {path}"))?;
    let session = AnalysisSession::new(&c).map_err(|e| e.to_string())?;
    // Single-site query: the per-site path costs one DFS; compiling the
    // whole circuit's cone plans only pays off for sweeps.
    let r = session.site(site);
    say!(
        "site `{node_name}`: {} on-path gates, P_sensitized = {:.4}",
        r.on_path_gates(),
        r.p_sensitized()
    );
    for p in r.per_point() {
        let kind = if p.point.is_flip_flop() { "FF" } else { "PO" };
        say!(
            "  {kind} at `{}`: {}",
            c.node(p.point.signal()).name(),
            p.value
        );
    }
    Ok(())
}

/// `advise`: the rank → harden → re-rank loop. Each round takes the
/// greedy [`HardeningPlan`]'s top affordable pick among the loaded
/// netlist's logic gates that no earlier round hardened, applies the TMR
/// **for real** through the incremental what-if engine, and reports the
/// *measured* SER change next to the plan's stale single-shot
/// prediction — then re-ranks on the edited circuit, so round `k+1`
/// chooses against the circuit that round `k` actually produced
/// instead of the original ranking. Only the dirty region is re-swept
/// per round, which is what makes the loop interactive on large
/// circuits.
fn cmd_advise(
    path: &str,
    rounds: usize,
    budget: Option<f64>,
    cost: HardeningCost,
    threads: usize,
) -> Result<(), Failure> {
    let c = load(path)?;
    let session = AnalysisSession::new(&c).map_err(|e| e.to_string())?;
    let mut wf = WhatIfSession::new(session, threads);
    let base_total = wf.total_ser();
    say!(
        "{}: base total SER (unit models) {:.6} over {} sites",
        c.name(),
        base_total,
        wf.circuit().len()
    );
    say!(
        "{:>5} {:<20} {:>8} {:>12} {:>12} {:>12} {:>14} {:>10}",
        "round",
        "gate",
        "cost",
        "predicted",
        "measured",
        "total",
        "dirty/total",
        "elapsed"
    );
    say!("{}", "-".repeat(100));

    // Without `--budget` only the rounds bound the loop.
    let bound = budget.unwrap_or(f64::INFINITY);
    let mut spent = 0.0;
    // Gates an earlier round hardened: each voter keeps its gate's name.
    let mut hardened: Vec<String> = Vec::new();
    for round in 1..=rounds {
        // Re-rank against the *current* (already hardened) circuit.
        let report = wf.report();
        let circuit = Arc::clone(wf.circuit());
        // Every candidate, best benefit/cost first: one round applies
        // one pick, so the budget filters picks instead of packing a
        // plan.
        let plan = HardeningPlan::greedy(&circuit, &report, cost, f64::MAX);
        // TMR applies to logic gates; the plan may also rank inputs
        // and flip-flops, and the voters and replicas of earlier rounds
        // (a voter keeps its gate's name; a replica or voter-tree gate
        // has a name the loaded netlist lacks), so skip to the best
        // affordable gate of the loaded netlist not yet protected.
        let Some(choice) = plan
            .choices()
            .iter()
            .find(|ch| {
                let name = circuit.node(ch.node).name();
                spent + ch.cost <= bound
                    && circuit.node(ch.node).kind().is_logic()
                    && c.find(name).is_some()
                    && !hardened.iter().any(|h| h == name)
            })
            .copied()
        else {
            say!(
                "round {round}: no affordable unhardened logic gate left (budget left {}); stopping",
                budget_text(budget.map(|b| b - spent))
            );
            break;
        };
        let name = circuit.node(choice.node).name().to_owned();
        let outcome = wf
            .apply(Edit::Tmr(choice.node))
            .map_err(|e| e.to_string())?;
        spent += choice.cost;
        // The measured change re-evaluates everything the plan's
        // per-entry estimate ignores: the voter tree's own exposure
        // and every reconvergent site whose P_sensitized shifted.
        let measured = outcome.previous_total - outcome.total;
        say!(
            "{:>5} {:<20} {:>8.2} {:>12.6} {:>12.6} {:>12.6} {:>9}/{:<5} {:>10.1?}",
            round,
            name,
            choice.cost,
            choice.removed_ser,
            measured,
            outcome.total,
            outcome.dirty_sites,
            outcome.total_sites,
            outcome.elapsed
        );
        hardened.push(name);
    }
    let final_total = wf.total_ser();
    say!("{}", "-".repeat(100));
    say!(
        "after {} hardening edits: total SER {:.6} ({:+.2}% vs base), budget spent {spent:.2} of {}",
        hardened.len(),
        final_total,
        (final_total - base_total) / base_total * 100.0,
        budget_text(budget)
    );
    Ok(())
}

/// A hardening budget as `advise` prints it: two decimals, or
/// `unbounded` when none was given.
fn budget_text(budget: Option<f64>) -> String {
    budget.map_or_else(|| "unbounded".to_owned(), |b| format!("{b:.2}"))
}

fn service_config(args: &[String]) -> Result<SerServiceConfig, String> {
    let mut config = SerServiceConfig::default();
    if let Some(threads) = flag_value(args, "--threads") {
        config.threads = threads
            .parse()
            .ok()
            .filter(|&n: &usize| n > 0)
            .ok_or_else(|| "bad --threads value (need a positive integer)".to_owned())?;
    }
    if let Some(sessions) = flag_value(args, "--sessions") {
        config.max_sessions = sessions
            .parse()
            .ok()
            .filter(|&n: &usize| n > 0)
            .ok_or_else(|| "bad --sessions value (need a positive integer)".to_owned())?;
    }
    Ok(config)
}

/// Standard output for `batch` frames, counting the `error` frames that
/// pass through. The frame sink hands over each frame line in one
/// write, and ids and messages are JSON-escaped, so the bare
/// `"frame": "error"` key can only be a frame's own kind.
struct ErrorTally {
    out: io::Stdout,
    errors: Arc<AtomicUsize>,
}

impl Write for ErrorTally {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        const ERROR_FRAME: &[u8] = b"\"frame\": \"error\"";
        if buf.windows(ERROR_FRAME.len()).any(|w| w == ERROR_FRAME) {
            self.errors.fetch_add(1, Ordering::Relaxed);
        }
        self.out.write_all(buf)?;
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        self.out.flush()
    }
}

/// `batch`: serves a request file's envelope lines through the same
/// engine path `serve` uses on stdin, printing every reply frame.
/// Exits non-zero when any `error` frame was written (the other frames
/// still print, so a pipeline sees both the partial results and the
/// failure). A closed stdout ends it quietly, like every printing
/// subcommand.
fn cmd_batch(path: &str, config: SerServiceConfig) -> Result<(), Failure> {
    let file = fs::File::open(path).map_err(|e| format!("cannot read `{path}`: {e}"))?;
    let service = Arc::new(SerService::new(config));
    let engine = ProtocolEngine::new(Arc::clone(&service), EngineConfig::default());
    let errors = Arc::new(AtomicUsize::new(0));
    engine
        .serve_connection(Connection {
            lines: Box::new(io::BufReader::new(file)),
            sink: FrameSink::new(ErrorTally {
                out: io::stdout(),
                errors: Arc::clone(&errors),
            }),
            peer: path.to_owned(),
        })
        .map_err(|e| match e.kind() {
            io::ErrorKind::BrokenPipe => Failure::ClosedPipe,
            _ => Failure::Message(format!("batch: {e}")),
        })?;
    let stats = service.stats();
    eprintln!(
        "{} warm hits, {} compiles, {} evictions, {} sessions cached; sweep cache {} hits / {} misses, {} cached",
        stats.session_hits,
        stats.session_misses,
        stats.evictions,
        stats.sessions_cached,
        stats.sweep_cache_hits,
        stats.sweep_cache_misses,
        stats.sweep_responses_cached
    );
    match errors.load(Ordering::Relaxed) {
        0 => Ok(()),
        n => Err(format!("{n} error frame(s) written").into()),
    }
}

/// `serve`: the protocol server — versioned envelopes with streaming
/// frames — on stdin/stdout, or on TCP with `--tcp`.
/// Compiled circuits stay warm in the shared session LRU across
/// requests (and, on TCP, across client connections).
fn cmd_serve(
    config: SerServiceConfig,
    engine_config: EngineConfig,
    tcp: Option<String>,
    idle_timeout: Option<Duration>,
) -> Result<(), Failure> {
    let service = Arc::new(SerService::new(config));
    let reap_counter = service.idle_reap_counter();
    let engine = Arc::new(ProtocolEngine::new(service, engine_config));
    match tcp {
        None => {
            let mut transport = StdioTransport::new();
            serve(&mut transport, &engine).map_err(|e| Failure::Message(e.to_string()))
        }
        Some(addr) => {
            let mut transport =
                TcpTransport::bind(&addr).map_err(|e| format!("cannot bind `{addr}`: {e}"))?;
            if let Some(timeout) = idle_timeout {
                // Reaps show up as `idle_reaped` in the stats op.
                transport = transport.with_idle_timeout(timeout, reap_counter);
            }
            eprintln!("ser-service listening on {}", transport.local_addr());
            serve(&mut transport, &engine).map_err(|e| Failure::Message(e.to_string()))
        }
    }
}

/// The `--idle-timeout SECS` serve flag (TCP only; 0 is rejected —
/// omit the flag to disable reaping).
fn idle_timeout(args: &[String]) -> Result<Option<Duration>, String> {
    match flag_value(args, "--idle-timeout") {
        None => Ok(None),
        Some(secs) => secs
            .parse()
            .ok()
            .filter(|&n: &u64| n > 0)
            .map(|n| Some(Duration::from_secs(n)))
            .ok_or_else(|| {
                "bad --idle-timeout value (need a positive number of seconds)".to_owned()
            }),
    }
}

/// The serve-only flags (`--tcp`, `--auth-token`, `--quota`,
/// `--max-inflight`).
fn engine_config(args: &[String]) -> Result<EngineConfig, String> {
    let mut config = EngineConfig {
        auth_token: flag_value(args, "--auth-token"),
        ..EngineConfig::default()
    };
    if let Some(quota) = flag_value(args, "--quota") {
        config.quota = Some(
            quota
                .parse()
                .ok()
                .filter(|&n: &u64| n > 0)
                .ok_or_else(|| "bad --quota value (need a positive integer)".to_owned())?,
        );
    }
    if let Some(inflight) = flag_value(args, "--max-inflight") {
        config.max_inflight = inflight
            .parse()
            .ok()
            .filter(|&n: &usize| n > 0)
            .ok_or_else(|| "bad --max-inflight value (need a positive integer)".to_owned())?;
    }
    Ok(config)
}

fn cmd_gen(name: &str, seed: u64, out: Option<&str>) -> Result<(), Failure> {
    let p = profile(name).ok_or_else(|| {
        format!("unknown profile `{name}` (try s953, s1196, ..., s38417, s298, s344, s386, s526)")
    })?;
    let c = synthesize(&p, seed);
    let text = write_bench(&c);
    match out {
        Some(path) => {
            fs::write(path, &text).map_err(|e| format!("cannot write `{path}`: {e}"))?;
            eprintln!("wrote {} ({} nodes) to {path}", c.name(), c.len());
        }
        None => write!(io::stdout(), "{text}").map_err(Failure::from)?,
    }
    Ok(())
}

fn usage() -> String {
    "usage:\n  ser-cli info    <netlist>\n  ser-cli analyze <netlist> [--top N] [--threads N]\n  ser-cli epp     <netlist> <node>\n  ser-cli advise  <netlist> [--rounds N] [--budget B] [--cost unit|area] [--threads N]\n  ser-cli batch   <requests.jsonl> [--threads N] [--sessions N]\n  ser-cli serve   [--threads N] [--sessions N] [--tcp ADDR] [--auth-token TOKEN] [--quota N] [--max-inflight N] [--idle-timeout SECS]\n  ser-cli gen     <profile> [--seed S] [-o out.bench]\n  ser-cli convert <in.bench|in.v> <out.bench|out.v>"
        .to_owned()
}

/// The flags each subcommand accepts; every one takes a value.
const FLAGS: &[(&str, &[&str])] = &[
    ("info", &[]),
    ("analyze", &["--top", "--threads"]),
    ("epp", &[]),
    ("advise", &["--rounds", "--budget", "--cost", "--threads"]),
    ("batch", &["--threads", "--sessions"]),
    (
        "serve",
        &[
            "--threads",
            "--sessions",
            "--tcp",
            "--auth-token",
            "--quota",
            "--max-inflight",
            "--idle-timeout",
        ],
    ),
    ("gen", &["--seed", "-o"]),
    ("convert", &[]),
];

/// Rejects any `--flag` that subcommand `cmd` does not accept. The
/// value after an accepted flag is skipped, so it may itself start with
/// `--`.
fn check_flags(cmd: &str, accepted: &[&str], args: &[String]) -> Result<(), String> {
    let mut rest = args.iter().skip(1);
    while let Some(arg) = rest.next() {
        if accepted.contains(&arg.as_str()) {
            rest.next();
        } else if arg.starts_with("--") {
            return Err(format!("unknown flag {arg} for {cmd}"));
        }
    }
    Ok(())
}

fn flag_value(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1).cloned())
}

fn run() -> Result<(), Failure> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cmd = args.first().map(String::as_str);
    if let Some(&(name, accepted)) = FLAGS.iter().find(|&&(name, _)| Some(name) == cmd) {
        check_flags(name, accepted, &args)?;
    }
    match cmd {
        Some("info") => cmd_info(args.get(1).ok_or_else(usage)?),
        Some("analyze") => {
            let path = args.get(1).ok_or_else(usage)?;
            let top = flag_value(&args, "--top")
                .map(|v| v.parse().map_err(|_| "bad --top value".to_owned()))
                .transpose()?
                .unwrap_or(15);
            let threads = flag_value(&args, "--threads")
                .map(|v| {
                    v.parse()
                        .ok()
                        .filter(|&n: &usize| n > 0)
                        .ok_or_else(|| "bad --threads value (need a positive integer)".to_owned())
                })
                .transpose()?
                .unwrap_or_else(|| {
                    std::thread::available_parallelism()
                        .map(|n| n.get())
                        .unwrap_or(1)
                });
            cmd_analyze(path, top, threads)
        }
        Some("epp") => {
            let path = args.get(1).ok_or_else(usage)?;
            let node = args.get(2).ok_or_else(usage)?;
            cmd_epp(path, node)
        }
        Some("advise") => {
            let path = args.get(1).ok_or_else(usage)?;
            let rounds = flag_value(&args, "--rounds")
                .map(|v| {
                    v.parse()
                        .ok()
                        .filter(|&n: &usize| n > 0)
                        .ok_or_else(|| "bad --rounds value (need a positive integer)".to_owned())
                })
                .transpose()?
                .unwrap_or(5);
            let budget = flag_value(&args, "--budget")
                .map(|v| {
                    v.parse()
                        .ok()
                        .filter(|&b: &f64| b.is_finite() && b > 0.0)
                        .ok_or_else(|| "bad --budget value (need a positive number)".to_owned())
                })
                .transpose()?;
            let cost = match flag_value(&args, "--cost").as_deref() {
                None | Some("unit") => HardeningCost::Unit,
                Some("area") => HardeningCost::AreaProxy,
                Some(other) => {
                    return Err(format!("bad --cost value `{other}` (unit or area)").into())
                }
            };
            let threads = flag_value(&args, "--threads")
                .map(|v| {
                    v.parse()
                        .ok()
                        .filter(|&n: &usize| n > 0)
                        .ok_or_else(|| "bad --threads value (need a positive integer)".to_owned())
                })
                .transpose()?
                .unwrap_or_else(|| {
                    std::thread::available_parallelism()
                        .map(|n| n.get())
                        .unwrap_or(1)
                });
            cmd_advise(path, rounds, budget, cost, threads)
        }
        Some("batch") => {
            let path = args.get(1).ok_or_else(usage)?;
            cmd_batch(path, service_config(&args)?)
        }
        Some("serve") => cmd_serve(
            service_config(&args)?,
            engine_config(&args)?,
            flag_value(&args, "--tcp"),
            idle_timeout(&args)?,
        ),
        Some("convert") => {
            let input = args.get(1).ok_or_else(usage)?;
            let output = args.get(2).ok_or_else(usage)?;
            cmd_convert(input, output)
        }
        Some("gen") => {
            let name = args.get(1).ok_or_else(usage)?;
            let seed = flag_value(&args, "--seed")
                .map(|v| v.parse().map_err(|_| "bad --seed value".to_owned()))
                .transpose()?
                .unwrap_or(1);
            let out = flag_value(&args, "-o");
            cmd_gen(name, seed, out.as_deref())
        }
        _ => Err(usage().into()),
    }?;
    io::stdout().flush().map_err(Failure::from)
}

fn main() -> ExitCode {
    match run() {
        // A reader that stops early (`| head`) has all it wanted.
        Ok(()) | Err(Failure::ClosedPipe) => ExitCode::SUCCESS,
        Err(Failure::Message(msg)) => {
            eprintln!("{msg}");
            ExitCode::FAILURE
        }
    }
}
