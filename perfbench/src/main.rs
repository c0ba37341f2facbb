//! perfbench — the repository's end-to-end benchmark.
//!
//! Drives a real `ser-cli serve --tcp 127.0.0.1:0 --threads 2` daemon
//! (default caches) from this one process over at most two loopback
//! connections, in closed loops, and checks every reply bit for bit
//! against the in-process library. With `--trace 1` it instead replays
//! the same request stream at each layer (TCP daemon, in-memory
//! `ProtocolEngine`, `SerService`, library) and reports per-layer self
//! times. See `README.md` for the workloads and metrics.
//!
//! ```text
//! perfbench --daemon PATH --workload NAME --seed N --seconds S --trace 0|1
//! perfbench --daemon PATH --self-test
//! ```
//!
//! The last line of standard output is the result object.

mod check;
mod client;
mod oracle;
mod trace;
mod workload;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use check::{check, Accounts};
use client::{Client, Daemon, TcpClient, THREADS};
use oracle::Oracle;
use workload::{Op, Plan, Scale, FULL, TINY, WORKLOADS};

#[derive(Debug, Clone)]
pub struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    daemon: PathBuf,
    scale: Scale,
}

/// One run's result: the last stdout line plus a detail line before it.
pub struct Outcome {
    pub correct: bool,
    pub attempted: usize,
    pub failed: usize,
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    pub detail: Vec<(String, String)>,
}

impl Outcome {
    fn result_line(&self) -> Result<String, String> {
        let mut metrics = Vec::new();
        for (name, value, unit) in &self.metrics {
            if !value.is_finite() {
                return Err(format!("metric {name} is not finite ({value})"));
            }
            metrics.push(format!(
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            ));
        }
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        ))
    }

    fn detail_line(&self) -> String {
        let fields: Vec<String> = self
            .detail
            .iter()
            .map(|(k, v)| format!("\"{k}\": {v}"))
            .collect();
        format!("{{\"perfbench\": {{{}}}}}", fields.join(", "))
    }
}

fn parse_args() -> Result<(Args, bool), String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Option<&str> {
        argv.iter()
            .position(|a| a == flag)
            .and_then(|i| argv.get(i + 1))
            .map(String::as_str)
    };
    let self_test = argv.iter().any(|a| a == "--self-test");
    let daemon = value("--daemon").ok_or("missing --daemon PATH")?;
    let workload = value("--workload").unwrap_or(WORKLOADS[0]).to_owned();
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload `{workload}` (one of {WORKLOADS:?})"
        ));
    }
    let seed = value("--seed")
        .unwrap_or("1")
        .parse()
        .map_err(|_| "bad --seed")?;
    let seconds: f64 = value("--seconds")
        .unwrap_or("10")
        .parse()
        .map_err(|_| "bad --seconds")?;
    if !(seconds > 0.0 && seconds <= 120.0) {
        return Err("--seconds must be in (0, 120]".into());
    }
    let trace = match value("--trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        _ => return Err("--trace must be 0 or 1".into()),
    };
    Ok((
        Args {
            workload,
            seed,
            seconds,
            trace,
            daemon: PathBuf::from(daemon),
            scale: FULL,
        },
        self_test,
    ))
}

fn main() -> ExitCode {
    let (args, self_test) = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let cwd = std::env::current_dir().expect("current directory");
    let work = cwd
        .join(".perfbench")
        .join(format!("work-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&work) {
        eprintln!("perfbench: cannot create {}: {e}", work.display());
        return ExitCode::from(2);
    }
    let result = if self_test {
        self_test_all(&args, &work).map(|()| None)
    } else {
        run(&args, &work).map(Some)
    };
    let _ = std::fs::remove_dir_all(&work);
    match result {
        Ok(None) => ExitCode::SUCCESS,
        Ok(Some(outcome)) => match outcome.result_line() {
            Ok(line) => {
                println!("{}", outcome.detail_line());
                println!("{line}");
                if outcome.correct {
                    ExitCode::SUCCESS
                } else {
                    ExitCode::from(1)
                }
            }
            Err(e) => {
                eprintln!("perfbench: {e}");
                ExitCode::from(2)
            }
        },
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}

fn run(args: &Args, work: &Path) -> Result<Outcome, String> {
    let t = Instant::now();
    let plan = workload::plan(&args.workload, args.seed, args.seconds, &args.scale, work);
    eprintln!(
        "perfbench: {} seed {}: {} netlists generated in {:.2}s",
        args.workload,
        args.seed,
        plan.netlists.len(),
        t.elapsed().as_secs_f64()
    );
    let mut outcome = if args.trace {
        trace::trace(args, &plan)?
    } else {
        measure(args, &plan)?
    };
    outcome
        .detail
        .insert(0, ("provenance".into(), provenance(args)));
    Ok(outcome)
}

/// Host, build and input facts every result carries.
fn provenance(args: &Args) -> String {
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    #[cfg(target_arch = "x86_64")]
    let (avx2, avx512f) = (
        std::arch::is_x86_feature_detected!("avx2"),
        std::arch::is_x86_feature_detected!("avx512f"),
    );
    #[cfg(not(target_arch = "x86_64"))]
    let (avx2, avx512f) = (false, false);
    let commit = std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_owned(), |s| s.trim().to_owned());
    format!(
        "{{\"host_cores\": {cores}, \"avx2\": {avx2}, \"avx512f\": {avx512f}, \"kernel\": \"{}\", \"daemon_threads\": {THREADS}, \"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"git_commit\": \"{commit}\"}}",
        ser_epp::KernelBackend::auto().name(),
        args.workload,
        args.seed,
        args.seconds
    )
}

/// A daemon after set-up: connections open, resident circuits warm.
pub struct Ready {
    pub daemon: Daemon,
    pub clients: Vec<TcpClient>,
    pub seconds: f64,
    /// Warm-up requests and their replies.
    pub warmup: Vec<(Op, Vec<String>)>,
}

/// Spawns a daemon, opens `conns` connections and sends the warm-up
/// requests; times all of it.
pub fn setup(plan: &Plan, args: &Args, conns: usize) -> Result<Ready, String> {
    let t = Instant::now();
    let cwd = std::env::current_dir().map_err(|e| e.to_string())?;
    let daemon = Daemon::spawn(&args.daemon, &cwd)
        .map_err(|e| format!("cannot start {}: {e}", args.daemon.display()))?;
    let mut clients = Vec::with_capacity(conns);
    for _ in 0..conns {
        clients.push(TcpClient::connect(&daemon.addr).map_err(|e| format!("connect: {e}"))?);
    }
    let mut warmup = Vec::with_capacity(plan.warmup.len());
    for (i, op) in plan.warmup.iter().enumerate() {
        let frames = clients[0]
            .call(&op.line(&format!("warm{i}"), &plan.netlists))
            .map_err(|e| format!("warm-up: {e}"))?;
        warmup.push((op.clone(), frames));
    }
    Ok(Ready {
        daemon,
        clients,
        seconds: t.elapsed().as_secs_f64(),
        warmup,
    })
}

/// The daemon's `stats` counters.
pub fn stats(client: &mut dyn Client) -> Result<BTreeMap<String, u64>, String> {
    let frames = client
        .call("{\"v\": 2, \"id\": \"stats\", \"op\": \"stats\"}")
        .map_err(|e| format!("stats: {e}"))?;
    let fields = ser_service::json::parse_object(frames.last().ok_or("empty stats reply")?)?;
    Ok(fields
        .into_iter()
        .filter_map(|(k, v)| v.as_count().map(|n| (k, n)))
        .filter(|(k, _)| k != "v")
        .collect())
}

#[derive(Debug)]
pub struct ReqRec {
    pub op: Op,
    pub t0: f64,
    pub t1: f64,
    pub frames: Vec<String>,
}

#[derive(Debug)]
pub struct UnitRec {
    pub conn: usize,
    pub main: bool,
    pub side: Option<usize>,
    pub reqs: Vec<ReqRec>,
}

impl UnitRec {
    pub fn latency(&self) -> f64 {
        self.reqs.last().map_or(0.0, |r| r.t1) - self.reqs.first().map_or(0.0, |r| r.t0)
    }

    /// The latency of the unit's side-class request, if it has one.
    pub fn side_latency(&self) -> Option<f64> {
        self.side.map(|i| self.reqs[i].t1 - self.reqs[i].t0)
    }
}

/// Sends a source's units on one connection until the source runs dry
/// or `seconds` have passed at a checkpoint. `on_done` sees each
/// request's id and send/reply times as it completes.
pub fn run_units(
    conn: usize,
    client: &mut dyn Client,
    units: impl Iterator<Item = workload::Unit>,
    nets: &[workload::Netlist],
    start: Instant,
    seconds: f64,
    on_done: &mut dyn FnMut(&str, f64, f64),
) -> Result<Vec<UnitRec>, String> {
    let mut out = Vec::new();
    for unit in units {
        let mut reqs = Vec::with_capacity(unit.reqs.len());
        for (i, op) in unit.reqs.into_iter().enumerate() {
            let id = format!("c{conn}.{}.{i}", out.len());
            let line = op.line(&id, nets);
            let t0 = start.elapsed().as_secs_f64();
            let frames = client.call(&line).map_err(|e| format!("request: {e}"))?;
            let t1 = start.elapsed().as_secs_f64();
            on_done(&id, t0, t1);
            reqs.push(ReqRec { op, t0, t1, frames });
        }
        out.push(UnitRec {
            conn,
            main: unit.main,
            side: unit.side,
            reqs,
        });
        if unit.checkpoint && start.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    Ok(out)
}

/// Linear-interpolated quantile of unsorted samples (NaN when empty).
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q * (sorted.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// Checks one daemon's warm-up replies (when `warmup` is given) and
/// then every recorded request, in per-connection order, against the
/// library. Records each verdict in `accounts` and returns the sites
/// each request delivered.
pub fn verify(
    oracle: &mut Oracle,
    plan: &Plan,
    warmup: Option<&[(Op, Vec<String>)]>,
    units: &[UnitRec],
    accounts: &mut Accounts,
) -> Result<Vec<Vec<usize>>, String> {
    for (op, frames) in warmup.unwrap_or_default() {
        let (answer, _) = oracle.answer(op);
        let verdict = check(op, frames, &answer);
        if !verdict.ok() {
            return Err(format!("warm-up {} failed: {verdict:?}", op.name()));
        }
    }
    let mut sites: Vec<Vec<usize>> = units.iter().map(|u| vec![0; u.reqs.len()]).collect();
    let conns = units.iter().map(|u| u.conn + 1).max().unwrap_or(0);
    for conn in 0..conns {
        for (u, unit) in units.iter().enumerate().filter(|(_, u)| u.conn == conn) {
            for (r, req) in unit.reqs.iter().enumerate() {
                let (answer, _) = oracle.answer(&req.op);
                let verdict = check(&req.op, &req.frames, &answer);
                accounts.record(&req.op, &verdict);
                sites[u][r] = verdict.sites;
                if plan.workload == "cold-analyze" {
                    oracle.forget(req.op.net());
                }
            }
        }
    }
    Ok(sites)
}

fn json_map(map: &BTreeMap<String, u64>) -> String {
    let fields: Vec<String> = map.iter().map(|(k, v)| format!("\"{k}\": {v}")).collect();
    format!("{{{}}}", fields.join(", "))
}

fn ms(samples: impl Iterator<Item = f64>) -> Vec<f64> {
    samples.map(|s| s * 1e3).collect()
}

/// Fresh daemons per run, each measured for an equal share of it (or,
/// with `Plan::round_per_daemon`, for one round until the time is used).
const SEGMENTS: usize = 8;

/// Which of the run's daemons a reported figure comes from: the
/// quartile on the good side (the 25th percentile of times, the 75th of
/// rates). Interference only ever adds time, and on a shared host it
/// comes in phases — a fixed in-process sweep was seen to swing between
/// 17 and 33 ms within one minute — as does the occasional daemon whose
/// threads share the cores badly for its whole life. The good-side
/// quartile of several daemons spread over the run screens both out.
const GOOD_QUARTILE: f64 = 0.25;

/// One daemon's share of a run.
struct Segment {
    units: Vec<UnitRec>,
    wall: f64,
    sites: usize,
    rss_mb: f64,
    delta: BTreeMap<String, u64>,
}

impl Segment {
    /// `ops_per_s`, `sites_per_s`, `main_ms_p50`, `main_ms_p90`,
    /// `side_ms_p50`, `side_ms_p90` of this daemon alone.
    fn figures(&self) -> [f64; 6] {
        let main = ms(self.units.iter().filter(|u| u.main).map(UnitRec::latency));
        let side = ms(self.units.iter().filter_map(UnitRec::side_latency));
        let requests: usize = self.units.iter().map(|u| u.reqs.len()).sum();
        [
            requests as f64 / self.wall,
            self.sites as f64 / self.wall,
            quantile(&main, 0.5),
            quantile(&main, 0.9),
            quantile(&side, 0.5),
            quantile(&side, 0.9),
        ]
    }
}

/// Sets a daemon up (several times when set-up is too short to time
/// once), drives every source for `seconds`, then checks the replies
/// against `oracle` — which carries the library's state across the
/// run's daemons, so only the first daemon's warm-up is re-derived.
fn segment(
    args: &Args,
    plan: &Plan,
    sources: &mut [workload::Source],
    seconds: f64,
    setup_s: &mut Vec<f64>,
    oracle: &mut Oracle,
    accounts: &mut Accounts,
) -> Result<Segment, String> {
    let spawns = if plan.warmup.is_empty() { 3 } else { 1 };
    let mut ready = None;
    for _ in 0..spawns {
        drop(ready.take());
        let r = setup(plan, args, sources.len())?;
        setup_s.push(r.seconds);
        ready = Some(r);
    }
    let Ready {
        daemon,
        mut clients,
        warmup,
        ..
    } = ready.expect("at least one set-up");

    let before = stats(&mut clients[0])?;
    let start = Instant::now();
    let runs: Vec<Result<Vec<UnitRec>, String>> = std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .iter_mut()
            .zip(sources.iter_mut())
            .enumerate()
            .map(|(conn, (client, source))| {
                s.spawn(move || {
                    run_units(
                        conn,
                        client,
                        source,
                        &plan.netlists,
                        start,
                        seconds,
                        &mut |_, _, _| {},
                    )
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("client thread panicked".into()))
            })
            .collect()
    });
    let mut units = Vec::new();
    for run in runs {
        units.extend(run?);
    }
    let wall = units
        .iter()
        .filter_map(|u| u.reqs.last())
        .map(|r| r.t1)
        .fold(0.0, f64::max);
    let after = stats(&mut clients[0])?;
    let rss_mb = daemon.peak_rss_mb().map_err(|e| format!("peak RSS: {e}"))?;
    drop(clients);
    drop(daemon);

    if let Some((op, _)) = warmup
        .iter()
        .find(|(_, f)| f.last().is_some_and(|l| l.contains("\"frame\": \"error\"")))
    {
        return Err(format!("warm-up {} failed", op.name()));
    }
    let first = setup_s.len() == spawns;
    let sites = verify(oracle, plan, first.then_some(&warmup[..]), &units, accounts)?;
    let delta = after
        .iter()
        .map(|(k, v)| {
            (
                k.clone(),
                v.saturating_sub(before.get(k).copied().unwrap_or(0)),
            )
        })
        .collect();
    Ok(Segment {
        sites: sites.iter().flatten().sum(),
        units,
        wall,
        rss_mb,
        delta,
    })
}

/// The untraced end-to-end run.
fn measure(args: &Args, plan: &Plan) -> Result<Outcome, String> {
    let mut sources = plan.sources.clone();
    let mut setup_s = Vec::new();
    let mut accounts = Accounts::default();
    let mut oracle = Oracle::new(&plan.netlists);
    let mut segments = Vec::with_capacity(SEGMENTS);
    let mut problems = Vec::new();
    let t = Instant::now();
    let share = if plan.round_per_daemon {
        0.0
    } else {
        args.seconds / SEGMENTS as f64
    };
    let mut measured = 0.0;
    while measured < args.seconds && segments.len() < 4 * SEGMENTS {
        let seg = segment(
            args,
            plan,
            &mut sources,
            share,
            &mut setup_s,
            &mut oracle,
            &mut accounts,
        )?;
        measured += seg.wall;
        // A finite stream that ran dry ends the run early.
        if seg.units.is_empty() {
            break;
        }
        problems.extend(sanity(plan, &seg.units, &seg.delta));
        segments.push(seg);
    }
    let units: Vec<&UnitRec> = segments.iter().flat_map(|s| &s.units).collect();
    let wall: f64 = segments.iter().map(|s| s.wall).sum();
    eprintln!(
        "perfbench: {} units over {wall:.2}s measured, {:.2}s in all",
        units.len(),
        t.elapsed().as_secs_f64()
    );

    let main: Vec<f64> = ms(units.iter().filter(|u| u.main).map(|u| u.latency()));
    let side: Vec<f64> = ms(units.iter().filter_map(|u| u.side_latency()));
    let requests: usize = units.iter().map(|u| u.reqs.len()).sum();
    let ops_per_s = requests as f64 / wall;
    let sites_per_s = segments.iter().map(|s| s.sites).sum::<usize>() as f64 / wall;
    let per_segment: Vec<[f64; 6]> = segments.iter().map(Segment::figures).collect();
    // Rates (the first two figures) are better high, times low.
    let figure = |i: usize| {
        let q = if i < 2 {
            1.0 - GOOD_QUARTILE
        } else {
            GOOD_QUARTILE
        };
        quantile(&per_segment.iter().map(|f| f[i]).collect::<Vec<_>>(), q)
    };
    let setup = quantile(&setup_s, GOOD_QUARTILE);
    let rss = median(&segments.iter().map(|s| s.rss_mb).collect::<Vec<_>>());

    problems.extend(accounts.first_mismatches.iter().cloned());
    for p in &problems {
        eprintln!("perfbench: {p}");
    }
    let failed = accounts.failed();
    let attempted = accounts.attempted();
    let named = workload_figures(plan, &units, &main, &side, ops_per_s, sites_per_s);
    let named: Vec<String> = named
        .iter()
        .chain(&[
            ("failed_share", failed as f64 / attempted.max(1) as f64),
            ("setup_s", setup),
            ("daemon_peak_rss_mb", rss),
        ])
        .map(|(k, v)| format!("\"{k}\": {v}"))
        .collect();
    let deltas: Vec<String> = segments.iter().map(|s| json_map(&s.delta)).collect();
    let quoted: Vec<String> = problems.iter().map(|p| format!("{p:?}")).collect();
    Ok(Outcome {
        correct: failed == 0 && problems.is_empty(),
        attempted,
        failed,
        metrics: vec![
            ("setup_s", setup, "s"),
            ("daemon_peak_rss_mb", rss, "MB"),
            ("ops_per_s", figure(0), "1/s"),
            ("sites_per_s", figure(1), "1/s"),
            ("main_ms_p50", figure(2), "ms"),
            ("main_ms_p90", figure(3), "ms"),
            ("side_ms_p50", figure(4), "ms"),
            ("side_ms_p90", figure(5), "ms"),
        ],
        detail: vec![
            ("ops".into(), accounts.json()),
            (
                "samples".into(),
                format!(
                    "{{\"segments\": {SEGMENTS}, \"main\": {}, \"side\": {}, \"requests\": {requests}, \"wall_s\": {wall}, \"setups_s\": {setup_s:?}}}",
                    main.len(),
                    side.len()
                ),
            ),
            ("workload_figures".into(), format!("{{{}}}", named.join(", "))),
            ("stats_delta_per_segment".into(), format!("[{}]", deltas.join(", "))),
            ("problems".into(), format!("[{}]", quoted.join(", "))),
        ],
    })
}

/// Exact-count expectations on the daemon's own `stats` counters.
fn sanity(plan: &Plan, units: &[UnitRec], delta: &BTreeMap<String, u64>) -> Vec<String> {
    let get = |k: &str| delta.get(k).copied().unwrap_or(0);
    let sweeps = units
        .iter()
        .flat_map(|u| &u.reqs)
        .filter(|r| matches!(r.op, Op::Sweep { .. }))
        .count() as u64;
    let mut problems = Vec::new();
    let mut expect = |what: &str, got: u64, want: u64| {
        if got != want {
            problems.push(format!("stats: {what} moved by {got}, expected {want}"));
        }
    };
    match plan.workload {
        "cold-analyze" => {
            expect("sweep_cache_hits", get("sweep_cache_hits"), 0);
            expect("session_misses", get("session_misses"), sweeps);
        }
        "input-scan" => expect("sweep_cache_hits", get("sweep_cache_hits"), 0),
        _ => {
            expect("sweep_cache_hits", get("sweep_cache_hits"), sweeps);
            if sweeps == 0 {
                problems.push("stats: no cached sweep was exercised".into());
            }
        }
    }
    problems
}

/// Figures under workload-specific names (`cold_ms_p50`, `site_us_p99`,
/// ...), reported in the detail line.
fn workload_figures(
    plan: &Plan,
    units: &[&UnitRec],
    main: &[f64],
    side: &[f64],
    ops_per_s: f64,
    sites_per_s: f64,
) -> Vec<(&'static str, f64)> {
    match plan.workload {
        "cold-analyze" => {
            let all: Vec<f64> = ms(units.iter().map(|u| u.latency()));
            vec![
                ("cold_nodes_per_s", sites_per_s),
                ("cold_ms_p50", quantile(&all, 0.5)),
                ("cold_ms_p90", quantile(&all, 0.9)),
            ]
        }
        "input-scan" => vec![
            ("scan_sites_per_s", sites_per_s),
            ("scan_ms_p50", quantile(main, 0.5)),
            ("scan_ms_p90", quantile(main, 0.9)),
        ],
        _ => vec![
            ("site_us_p50", quantile(main, 0.5) * 1e3),
            ("site_us_p99", quantile(main, 0.99) * 1e3),
            ("whatif_ms_p50", quantile(side, 0.5)),
            ("whatif_ms_p90", quantile(side, 0.9)),
            ("interactive_ops_per_s", ops_per_s),
        ],
    }
}

/// Runs every workload on tiny inputs, untraced and traced, and proves
/// the checker rejects a reply with one flipped bit.
fn self_test_all(args: &Args, work: &Path) -> Result<(), String> {
    for (i, name) in WORKLOADS.iter().enumerate() {
        for trace in [false, true] {
            let args = Args {
                workload: (*name).to_owned(),
                seed: args.seed,
                seconds: 1.0,
                trace,
                daemon: args.daemon.clone(),
                scale: TINY,
            };
            let dir = work.join(format!("{i}{}", u8::from(trace)));
            std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
            let outcome = run(&args, &dir)?;
            let line = outcome.result_line()?;
            if !outcome.correct || outcome.failed > 0 {
                return Err(format!("self-test {name} (trace {trace}) failed: {line}"));
            }
            eprintln!("self-test {name} trace={}: ok {line}", u8::from(trace));
        }
    }

    // One seeded bit flip in a reply must be caught.
    let dir = work.join("flip");
    std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
    let plan = workload::plan("interactive", args.seed, 1.0, &TINY, &dir);
    let Ready { warmup, .. } = setup(&plan, args, 1)?;
    let mut oracle = Oracle::new(&plan.netlists);
    let mut caught = 0;
    for (op, frames) in &warmup {
        let (answer, _) = oracle.answer(op);
        if !check(op, frames, &answer).ok() {
            return Err(format!("self-test: clean {} reply rejected", op.name()));
        }
        if let Some(flipped) = check::flip_one_bit(frames) {
            let verdict = check(op, &flipped, &answer);
            if verdict.mismatch.is_none() {
                return Err(format!(
                    "self-test: a flipped bit in {} went unnoticed",
                    op.name()
                ));
            }
            caught += 1;
        }
    }
    if caught == 0 {
        return Err("self-test: no reply to flip a bit in".into());
    }
    eprintln!("self-test bit flip: {caught} corrupted replies caught");
    Ok(())
}
