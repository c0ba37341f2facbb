//! The traced run: one request stream replayed, one request at a time,
//! at each layer — the TCP daemon (untraced, then traced), an in-memory
//! `ProtocolEngine`, a bare `SerService` and the library itself — with
//! a span per request per layer. A layer's self time for a request is
//! its time minus the time of the layer below for the same request id.

use std::io::Write as _;
use std::sync::Arc;
use std::time::Instant;

use ser_epp::Edit;
use ser_netlist::Circuit;
use ser_service::protocol::response_fields;
use ser_service::{
    parse_wire_line, EngineConfig, ProtocolEngine, Request, Response, SerService, SerServiceConfig,
    ServiceError, SiteRequest, SweepRequest,
};
use ser_sp::InputProbs;

use crate::check::{check, Accounts};
use crate::client::{MemClient, THREADS};
use crate::oracle::{LayerSamples, LibTime, Oracle};
use crate::workload::{Op, Plan, Unit, TOP};
use crate::{median, run_units, setup, Args, Outcome, Ready, UnitRec};

/// One timed call at one layer, for one request.
struct Span {
    name: &'static str,
    parent: Option<&'static str>,
    request: String,
    start: f64,
    end: f64,
}

fn request_id(unit: usize, req: usize) -> String {
    format!("c0.{unit}.{req}")
}

fn fresh_service() -> SerService {
    SerService::new(SerServiceConfig {
        threads: THREADS,
        ..SerServiceConfig::default()
    })
}

/// Warm-up requests and their replies.
type Warmup = Vec<(Op, Vec<String>)>;

/// Replays `units` on a freshly set-up daemon over one connection.
fn tcp_replay(
    plan: &Plan,
    args: &Args,
    units: impl Iterator<Item = Unit>,
    seconds: f64,
    mut spans: Option<&mut Vec<Span>>,
) -> Result<(Vec<UnitRec>, Warmup), String> {
    let mut ready = setup(plan, args, 1)?;
    let start = Instant::now();
    let recs = run_units(
        0,
        &mut ready.clients[0],
        units,
        &plan.netlists,
        start,
        seconds,
        &mut |id, t0, t1| {
            if let Some(spans) = spans.as_deref_mut() {
                spans.push(Span {
                    name: "net",
                    parent: None,
                    request: id.to_owned(),
                    start: t0,
                    end: t1,
                });
            }
        },
    );
    let Ready { daemon, warmup, .. } = ready;
    drop(daemon);
    Ok((recs?, warmup))
}

fn service_call(
    service: &SerService,
    circuit: &Arc<Circuit>,
    op: &Op,
) -> Result<Option<Response>, ServiceError> {
    let missing = |what: &str| ServiceError::InvalidRequest(format!("no node `{what}`"));
    match op {
        Op::Sweep { .. } => service
            .submit(circuit, Request::Sweep(SweepRequest::default()))
            .map(Some),
        Op::Site { node, .. } => {
            let site = circuit.find(node).ok_or_else(|| missing(node))?;
            service
                .submit(circuit, Request::Site(SiteRequest { site }))
                .map(Some)
        }
        Op::SetInputs {
            default_p,
            overrides,
            ..
        } => {
            let mut probs = InputProbs::uniform(*default_p);
            for (name, p) in overrides {
                probs = probs.with(circuit.find(name).ok_or_else(|| missing(name))?, *p);
            }
            service.set_inputs(circuit, probs).map(|_| None)
        }
        Op::WhatIf { node, .. } => service
            .whatif_apply(circuit, |current| {
                current
                    .find(node)
                    .map(Edit::Tmr)
                    .ok_or_else(|| missing(node))
            })
            .map(|_| None),
        Op::Revert { .. } => service.whatif_revert(circuit).map(|_| None),
    }
}

/// Per-request seconds at the service layer, plus result-frame render
/// times in µs.
fn service_replay(plan: &Plan, units: &[Unit], spans: &mut Vec<Span>) -> (Vec<Vec<f64>>, Vec<f64>) {
    let service = fresh_service();
    let mut circuits: Vec<Option<Arc<Circuit>>> = vec![None; plan.netlists.len()];
    let mut circuit = |net: usize| -> Arc<Circuit> {
        Arc::clone(circuits[net].get_or_insert_with(|| Arc::new(plan.netlists[net].parse())))
    };
    for op in &plan.warmup {
        let _ = service_call(&service, &circuit(op.net()), op);
    }
    let mut render_us = Vec::new();
    let start = Instant::now();
    let times = units
        .iter()
        .enumerate()
        .map(|(u, unit)| {
            unit.reqs
                .iter()
                .enumerate()
                .map(|(r, op)| {
                    let c = circuit(op.net());
                    let t0 = start.elapsed().as_secs_f64();
                    let response = service_call(&service, &c, op);
                    let t1 = start.elapsed().as_secs_f64();
                    spans.push(Span {
                        name: "service",
                        parent: Some("protocol"),
                        request: request_id(u, r),
                        start: t0,
                        end: t1,
                    });
                    if let Ok(Some(response)) = response {
                        let top = matches!(op, Op::Sweep { .. }).then_some(TOP);
                        let t = Instant::now();
                        std::hint::black_box(response_fields(top, &c, &response, true));
                        render_us.push(t.elapsed().as_secs_f64() * 1e6);
                    }
                    t1 - t0
                })
                .collect()
        })
        .collect();
    (times, render_us)
}

/// Self times of one request class at each layer (seconds).
#[derive(Debug, Default)]
struct ClassSelf {
    e2e: Vec<f64>,
    net: Vec<f64>,
    protocol: Vec<f64>,
    service: Vec<f64>,
    library: Vec<f64>,
}

impl ClassSelf {
    fn push(&mut self, e2e: f64, net: f64, protocol: f64, service: f64, library: f64) {
        self.e2e.push(e2e);
        self.net.push(net);
        self.protocol.push(protocol);
        self.service.push(service);
        self.library.push(library);
    }

    /// The run's own consistency checks: no layer's median self time
    /// is negative beyond noise, and the stages sum to no more than the
    /// end-to-end time.
    fn checks(&self, class: &str, problems: &mut Vec<String>) {
        let e2e = median(&self.e2e);
        let noise = 0.1 * e2e + 50e-6;
        let layers = [
            ("net", median(&self.net)),
            ("protocol", median(&self.protocol)),
            ("service", median(&self.service)),
            ("library", median(&self.library)),
        ];
        for (layer, m) in layers {
            if m < -noise {
                problems.push(format!(
                    "{class}: {layer} self time {:.1}us is negative beyond noise",
                    m * 1e6
                ));
            }
        }
        let sum: f64 = layers.iter().map(|(_, m)| m).sum();
        if sum > e2e + noise {
            problems.push(format!(
                "{class}: stage medians sum to {:.1}us, above end-to-end {:.1}us",
                sum * 1e6,
                e2e * 1e6
            ));
        }
    }

    fn json(&self) -> String {
        format!(
            "{{\"samples\": {}, \"e2e_us\": {}, \"net_us\": {}, \"protocol_us\": {}, \"service_us\": {}, \"library_us\": {}}}",
            self.e2e.len(),
            median(&self.e2e) * 1e6,
            median(&self.net) * 1e6,
            median(&self.protocol) * 1e6,
            median(&self.service) * 1e6,
            median(&self.library) * 1e6
        )
    }
}

fn max_of(values: impl Iterator<Item = f64>) -> f64 {
    values.fold(f64::NAN, f64::max)
}

pub fn trace(args: &Args, plan: &Plan) -> Result<Outcome, String> {
    let budget = (args.seconds / 5.0).max(0.5);
    let mut spans: Vec<Span> = Vec::new();

    // 1–2. The TCP daemon, untraced and then traced, over the same units.
    let (untraced, _) = tcp_replay(plan, args, plan.replay_units(), budget, None)?;
    let units: Vec<Unit> = untraced
        .iter()
        .map(|u| Unit {
            reqs: u.reqs.iter().map(|r| r.op.clone()).collect(),
            main: u.main,
            side: u.side,
            checkpoint: false,
        })
        .collect();
    let (traced, warmup) = tcp_replay(
        plan,
        args,
        units.iter().cloned(),
        f64::INFINITY,
        Some(&mut spans),
    )?;
    let rtt_sum =
        |recs: &[UnitRec]| -> f64 { recs.iter().flat_map(|u| &u.reqs).map(|r| r.t1 - r.t0).sum() };
    let overhead_pct = (rtt_sum(&traced) - rtt_sum(&untraced)) / rtt_sum(&untraced) * 100.0;

    // 3. The in-memory protocol engine.
    let engine = Arc::new(ProtocolEngine::new(
        Arc::new(fresh_service()),
        EngineConfig::default(),
    ));
    let engine_recs = {
        let mut client = MemClient::open(&engine);
        for (i, op) in plan.warmup.iter().enumerate() {
            crate::client::Client::call(&mut client, &op.line(&format!("warm{i}"), &plan.netlists))
                .map_err(|e| format!("engine warm-up: {e}"))?;
        }
        let start = Instant::now();
        run_units(
            0,
            &mut client,
            units.iter().cloned(),
            &plan.netlists,
            start,
            f64::INFINITY,
            &mut |id, t0, t1| {
                spans.push(Span {
                    name: "protocol",
                    parent: Some("net"),
                    request: id.to_owned(),
                    start: t0,
                    end: t1,
                })
            },
        )?
    };
    drop(engine);
    let mut parse_us = Vec::new();
    for (u, unit) in units.iter().enumerate() {
        for (r, op) in unit.reqs.iter().enumerate() {
            let line = op.line(&request_id(u, r), &plan.netlists);
            let t = Instant::now();
            let parsed = std::hint::black_box(parse_wire_line(&line));
            parse_us.push(t.elapsed().as_secs_f64() * 1e6);
            parsed.map_err(|e| format!("request line does not parse: {}", e.render()))?;
        }
    }

    // 4. The bare service.
    let (service_s, render_us) = service_replay(plan, &units, &mut spans);

    // 5. The library — which also checks the traced daemon's replies.
    let mut oracle = Oracle::new(&plan.netlists);
    for (op, frames) in &warmup {
        let (answer, _) = oracle.answer(op);
        let verdict = check(op, frames, &answer);
        if !verdict.ok() {
            return Err(format!("warm-up {} failed: {verdict:?}", op.name()));
        }
    }
    let mut accounts = Accounts::default();
    let mut lib: Vec<Vec<LibTime>> = Vec::with_capacity(units.len());
    let start = Instant::now();
    for (u, unit) in traced.iter().enumerate() {
        let mut row = Vec::with_capacity(unit.reqs.len());
        for (r, req) in unit.reqs.iter().enumerate() {
            let t0 = start.elapsed().as_secs_f64();
            let (answer, time) = oracle.answer(&req.op);
            let verdict = check(&req.op, &req.frames, &answer);
            accounts.record(&req.op, &verdict);
            let mut at = t0;
            for (name, parent, secs) in [
                ("netlist.parse", "protocol", time.parse),
                ("session.compile", "service", time.compile),
                ("plan.build", "service", time.plan),
                ("sweep.kernel", "service", time.kernel),
                ("session.set_inputs", "service", time.set_inputs),
                ("session.site", "service", time.site),
                ("whatif.apply", "service", time.apply),
                ("whatif.revert", "service", time.revert),
            ] {
                if secs > 0.0 {
                    spans.push(Span {
                        name,
                        parent: Some(parent),
                        request: request_id(u, r),
                        start: at,
                        end: at + secs,
                    });
                    at += secs;
                }
            }
            row.push(time);
            if plan.workload == "cold-analyze" && !plan.probe_nets.contains(&req.op.net()) {
                oracle.forget(req.op.net());
            }
        }
        lib.push(row);
    }
    oracle.probe(&plan.probe_nets, args.seed);

    // Self times per request, summed per unit, grouped by class.
    let mut main = ClassSelf::default();
    let mut side = ClassSelf::default();
    for (u, unit) in traced.iter().enumerate() {
        let per_req: Vec<[f64; 5]> = unit
            .reqs
            .iter()
            .enumerate()
            .map(|(r, req)| {
                let tcp = req.t1 - req.t0;
                let eng = &engine_recs[u].reqs[r];
                let engine = eng.t1 - eng.t0;
                let service = service_s[u][r];
                let l = &lib[u][r];
                let below = l.below_service();
                [
                    tcp,
                    tcp - engine,
                    engine - service - l.parse,
                    service - below,
                    l.parse + below,
                ]
            })
            .collect();
        if unit.main {
            let s = |i: usize| per_req.iter().map(|x| x[i]).sum::<f64>();
            main.push(unit.latency(), s(1), s(2), s(3), s(4));
        }
        if let Some(i) = unit.side {
            let x = per_req[i];
            side.push(x[0], x[1], x[2], x[3], x[4]);
        }
    }
    let mut problems = Vec::new();
    main.checks("main", &mut problems);
    side.checks("side", &mut problems);
    for p in &problems {
        eprintln!("perfbench: trace check: {p}");
    }
    let spans_path = write_spans(args, &spans)?;

    let s: &LayerSamples = &oracle.samples;
    let mb = |bytes: usize| bytes as f64 / (1024.0 * 1024.0);
    let us = |v: &[f64]| median(v) * 1e6;
    let metrics = vec![
        ("parse.parse_ms", median(&s.parse_ms), "ms"),
        ("session.compile_ms", median(&s.compile_ms), "ms"),
        ("session.sp_ms", median(&s.sp_ms), "ms"),
        ("session.set_inputs_ms", median(&s.set_inputs_ms), "ms"),
        ("session.site_us", median(&s.site_us), "us"),
        ("plan.build_ms", median(&s.plan_ms), "ms"),
        (
            "plan.arena_mb",
            max_of(s.plans.iter().map(|p| mb(p.arena_bytes))),
            "MB",
        ),
        (
            "plan.stored_members",
            max_of(s.plans.iter().map(|p| p.stored_members as f64)),
            "count",
        ),
        ("sweep.kernel_ms", median(&s.kernel_ms), "ms"),
        (
            "sweep.sites_per_s",
            s.kernel_sites as f64 / s.kernel_s,
            "1/s",
        ),
        (
            "sweep.members_per_s",
            s.kernel_members as f64 / s.kernel_s,
            "1/s",
        ),
        ("sweep.planned_site_us", median(&s.planned_site_us), "us"),
        ("whatif.apply_ms", median(&s.apply_ms), "ms"),
        ("whatif.revert_ms", median(&s.revert_ms), "ms"),
        (
            "whatif.dirty_site_fraction",
            median(&s.dirty_fraction),
            "ratio",
        ),
        ("service.main_self_us", us(&main.service), "us"),
        ("service.side_self_us", us(&side.service), "us"),
        ("protocol.main_self_us", us(&main.protocol), "us"),
        ("protocol.side_self_us", us(&side.protocol), "us"),
        ("protocol.parse_us", median(&parse_us), "us"),
        ("protocol.render_us", median(&render_us), "us"),
        ("net.main_self_us", us(&main.net), "us"),
        ("net.side_self_us", us(&side.net), "us"),
        ("trace.overhead_pct", overhead_pct, "%"),
    ];
    let quoted: Vec<String> = problems.iter().map(|p| format!("{p:?}")).collect();
    let failed = accounts.failed();
    Ok(Outcome {
        correct: failed == 0,
        attempted: accounts.attempted(),
        failed,
        metrics,
        detail: vec![
            ("ops".into(), accounts.json()),
            ("replayed_units".into(), units.len().to_string()),
            ("self_main".into(), main.json()),
            ("self_side".into(), side.json()),
            ("trace_checks".into(), format!("[{}]", quoted.join(", "))),
            ("spans".into(), format!("{:?}", spans_path)),
        ],
    })
}

/// Writes the spans, one JSON object per line, under `.perfbench/`.
fn write_spans(args: &Args, spans: &[Span]) -> Result<String, String> {
    let path = format!(".perfbench/spans-{}-{}.jsonl", args.workload, args.seed);
    let mut out =
        std::io::BufWriter::new(std::fs::File::create(&path).map_err(|e| format!("{path}: {e}"))?);
    for s in spans {
        let parent = s.parent.map_or("null".to_owned(), |p| format!("\"{p}\""));
        writeln!(
            out,
            "{{\"name\": \"{}\", \"parent\": {parent}, \"request\": \"{}\", \"start_us\": {:.3}, \"end_us\": {:.3}}}",
            s.name,
            s.request,
            s.start * 1e6,
            s.end * 1e6
        )
        .map_err(|e| e.to_string())?;
    }
    out.flush().map_err(|e| e.to_string())?;
    Ok(path)
}
