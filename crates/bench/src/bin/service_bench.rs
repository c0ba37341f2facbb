//! Service-throughput benchmark: `SerService` request rates, warm vs
//! cold session latency, and concurrent-sweep interleaving. Emits
//! `BENCH_service.json` so the service's perf trajectory is tracked
//! commit over commit.
//!
//! ```text
//! cargo run --release -p ser-bench-harness --bin service_bench [-- --quick] [-- --out PATH]
//! ```
//!
//! Reported per circuit:
//!
//! - `cold_sweep_ms`: first whole-circuit sweep request against a cold
//!   service — pays session compile, cone-plan build and the sweep.
//! - `warm_sweep_ms`: the same request once the session is warm
//!   (median of several runs) — the steady-state cost a resident
//!   service pays per sweep.
//! - `site_requests_per_sec`: single-site analytical requests served
//!   per second from the warm cache.
//!
//! Plus two cross-cutting experiments:
//!
//! - `interleave`: two warm circuits, a full sweep each — submitted
//!   back to back (serialized) vs as one batch (interleaved on the
//!   shared executor). `speedup` is serialized / interleaved wall time;
//!   above 1.0 means concurrent sweeps genuinely overlap.
//! - `tcp`: the same service behind the TCP front door on loopback —
//!   v2 envelope round trips per second, p50 round-trip latency for
//!   warm single-site requests, one warm whole-circuit sweep round
//!   trip, and `cancel_latency_ms`: median time from a `cancel`
//!   envelope (sent from a second connection mid-sweep) to the
//!   `cancelled` error frame landing on the swept connection. The gap
//!   to the in-process rows is the wire cost (framing, JSON,
//!   syscalls).

use std::fmt::Write as _;
use std::io::{BufRead, BufReader, Write as _};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Instant;

use ser_gen::synthesize;
use ser_netlist::{write_bench, Circuit};
use ser_service::{
    serve, EngineConfig, ProtocolEngine, Request, SerService, SerServiceConfig, SiteRequest,
    SweepRequest, TcpTransport,
};

fn median_ms(samples: &mut [f64]) -> f64 {
    samples.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    samples[samples.len() / 2] * 1e3
}

fn fresh_service(threads: usize) -> SerService {
    SerService::new(SerServiceConfig {
        max_sessions: 8,
        threads,
        sweep_batch_sites: 256,
        // The warm-sweep rows measure the *kernel* path; response
        // caching would short-circuit every repeat to a map lookup.
        max_sweep_responses: 0,
        plan_cache_dir: None,
        plan_cache_max_bytes: None,
        ..SerServiceConfig::default()
    })
}

/// Like [`fresh_service`], but with the persistent plan-artifact cache
/// rooted at `dir` — what the `cold_cached_sweep_ms` rows measure.
fn cached_service(threads: usize, dir: &std::path::Path) -> SerService {
    SerService::new(SerServiceConfig {
        max_sessions: 8,
        threads,
        sweep_batch_sites: 256,
        max_sweep_responses: 0,
        plan_cache_dir: Some(dir.to_path_buf()),
        plan_cache_max_bytes: None,
        ..SerServiceConfig::default()
    })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1).cloned())
        .unwrap_or_else(|| "BENCH_service.json".to_owned());
    let names: &[&str] = if quick {
        &["s953"]
    } else {
        &["s953", "s1196", "s1423"]
    };
    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let warm_runs = if quick { 3 } else { 7 };
    let site_requests = if quick { 200 } else { 1_000 };

    let circuits: Vec<Arc<Circuit>> = names
        .iter()
        .map(|name| {
            let profile = ser_gen::profile(name).expect("profile exists");
            Arc::new(synthesize(&profile, 1))
        })
        .collect();

    // One plan-artifact cache dir for the whole run, cleaned at exit.
    let cache_dir =
        std::env::temp_dir().join(format!("ser_service_bench_cache_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&cache_dir);

    let mut records: Vec<String> = Vec::new();
    for (name, circuit) in names.iter().zip(&circuits) {
        let n = circuit.len();

        // --- Cold: a fresh service, first sweep request. --------------
        let service = fresh_service(threads);
        let t = Instant::now();
        let cold = service
            .submit(circuit, Request::Sweep(SweepRequest::default()))
            .expect("valid circuit");
        let cold_sweep_ms = t.elapsed().as_secs_f64() * 1e3;
        assert!(!cold.meta.warm_session);
        assert_eq!(cold.as_sweep().expect("sweep payload").len(), n);

        // --- Warm: same request against the now-warm session. ---------
        let mut warm_samples: Vec<f64> = Vec::with_capacity(warm_runs);
        let mut warm_sweep = None;
        for _ in 0..warm_runs {
            let t = Instant::now();
            let r = service
                .submit(circuit, Request::Sweep(SweepRequest::default()))
                .expect("valid circuit");
            warm_samples.push(t.elapsed().as_secs_f64());
            assert!(r.meta.warm_session);
            warm_sweep = Some(r);
        }
        let warm_sweep_ms = median_ms(&mut warm_samples);
        assert_eq!(
            warm_sweep.expect("ran").as_sweep().expect("sweep payload"),
            cold.as_sweep().expect("sweep payload"),
            "warm and cold responses identical"
        );

        // --- Cold with a warm artifact cache: a fresh process whose
        // plan compilation is a file load. One service populates the
        // cache, a second (fresh sessions, same dir) pays only the
        // load.
        {
            let writer = cached_service(threads, &cache_dir);
            writer
                .submit(circuit, Request::Sweep(SweepRequest::default()))
                .expect("valid circuit");
            assert_eq!(writer.stats().plan_cache_hits, 0, "first run populates");
        }
        let reader = cached_service(threads, &cache_dir);
        let t = Instant::now();
        let cached_cold = reader
            .submit(circuit, Request::Sweep(SweepRequest::default()))
            .expect("valid circuit");
        let cold_cached_sweep_ms = t.elapsed().as_secs_f64() * 1e3;
        assert!(!cached_cold.meta.warm_session);
        assert_eq!(
            reader.stats().plan_cache_hits,
            1,
            "second service loads the persisted plans"
        );
        assert_eq!(
            cached_cold.as_sweep().expect("sweep payload"),
            cold.as_sweep().expect("sweep payload"),
            "cached plans must not change results"
        );

        // --- Warm single-site request throughput. ---------------------
        let sites: Vec<_> = circuit.node_ids().collect();
        let t = Instant::now();
        for i in 0..site_requests {
            let site = sites[i % sites.len()];
            let r = service
                .submit(circuit, Request::Site(SiteRequest { site }))
                .expect("valid request");
            std::hint::black_box(r.as_site().expect("site payload").p_sensitized());
        }
        let site_requests_per_sec = site_requests as f64 / t.elapsed().as_secs_f64();

        eprintln!(
            "{name}: {n} nodes | cold sweep {cold_sweep_ms:.1}ms | cold+cache {cold_cached_sweep_ms:.1}ms | warm sweep {warm_sweep_ms:.1}ms | {site_requests_per_sec:.0} site req/s"
        );
        let mut rec = String::from("  {");
        let _ = write!(
            rec,
            "\"circuit\": \"{name}\", \"nodes\": {n}, \"cold_sweep_ms\": {cold_sweep_ms:.3}, \"cold_cached_sweep_ms\": {cold_cached_sweep_ms:.3}, \"warm_sweep_ms\": {warm_sweep_ms:.3}, \"site_requests_per_sec\": {site_requests_per_sec:.1}}}"
        );
        records.push(rec);
    }
    let _ = std::fs::remove_dir_all(&cache_dir);

    // --- Interleaving: two sweeps, serialized vs one batch. -----------
    let (a, b) = (&circuits[0], circuits.get(1).unwrap_or(&circuits[0]));
    let service = fresh_service(threads);
    service.session(a, None).expect("compiles");
    service.session(b, None).expect("compiles");
    // Serialized: one sweep fully drains before the next is submitted.
    let t = Instant::now();
    let ra = service
        .submit(a, Request::Sweep(SweepRequest::default()))
        .expect("valid");
    let rb = service
        .submit(b, Request::Sweep(SweepRequest::default()))
        .expect("valid");
    let serialized_ms = t.elapsed().as_secs_f64() * 1e3;
    // Interleaved: both sweeps' batches share the executor queue.
    let t = Instant::now();
    let both = service.submit_batch(vec![
        (
            Arc::clone(a),
            Request::Sweep(SweepRequest::default()),
            None,
            None,
        ),
        (
            Arc::clone(b),
            Request::Sweep(SweepRequest::default()),
            None,
            None,
        ),
    ]);
    let interleaved_ms = t.elapsed().as_secs_f64() * 1e3;
    assert_eq!(
        both[0].as_ref().expect("valid").as_sweep(),
        ra.as_sweep(),
        "interleaving must not change results"
    );
    assert_eq!(both[1].as_ref().expect("valid").as_sweep(), rb.as_sweep());
    let speedup = serialized_ms / interleaved_ms;
    let executor_workers = service.config().threads;
    eprintln!(
        "interleave {}+{} ({executor_workers} workers): serialized {serialized_ms:.1}ms | batched {interleaved_ms:.1}ms | {speedup:.2}x",
        a.name(),
        b.name()
    );

    // --- TCP round trips: the same workload over the wire. ------------
    let tcp = bench_tcp(&circuits[0], threads, site_requests);
    let cancel_latency_ms = bench_cancel_latency(&circuits[0], threads, if quick { 3 } else { 5 });
    eprintln!(
        "tcp {}: {:.0} round trips/s | p50 {:.1}us | warm sweep {:.1}ms over the wire | cancel {:.2}ms",
        names[0], tcp.round_trips_per_sec, tcp.p50_us, tcp.sweep_round_trip_ms, cancel_latency_ms
    );

    // Backend provenance: the warm-sweep rows are kernel-bound, so the
    // rule-core backend that served them is part of the result.
    let kernel = ser_epp::KernelBackend::auto().name();
    let json = format!(
        "{{\n  \"bench\": \"service_throughput\",\n  \"kernel\": \"{kernel}\",\n  \"unit_note\": \"latencies in milliseconds; cold includes session compile + cone-plan build; cold_cached loads compiled plans from the persistent artifact cache; interleave speedup > 1 needs more than one executor worker; tcp rows measure loopback v2-envelope round trips; cancel_latency_ms is cancel envelope to cancelled error frame on the swept connection; host cores: {threads}\",\n  \"threads\": {threads},\n  \"results\": [\n{}\n  ],\n  \"interleave\": {{\"circuits\": [\"{}\", \"{}\"], \"executor_workers\": {executor_workers}, \"serialized_ms\": {serialized_ms:.3}, \"interleaved_ms\": {interleaved_ms:.3}, \"speedup\": {speedup:.3}}},\n  \"tcp\": {{\"circuit\": \"{}\", \"round_trips_per_sec\": {:.1}, \"p50_us\": {:.1}, \"sweep_round_trip_ms\": {:.3}, \"cancel_latency_ms\": {cancel_latency_ms:.3}}}\n}}\n",
        records.join(",\n"),
        a.name(),
        b.name(),
        names[0],
        tcp.round_trips_per_sec,
        tcp.p50_us,
        tcp.sweep_round_trip_ms
    );
    std::fs::write(&out_path, &json).expect("write benchmark output");
    println!("{json}");
    eprintln!("wrote {out_path}");
}

struct TcpRecord {
    round_trips_per_sec: f64,
    p50_us: f64,
    sweep_round_trip_ms: f64,
}

/// Materializes `circuit` as a .bench file — the wire addresses
/// netlists by path.
fn materialize(circuit: &Circuit, tag: &str) -> std::path::PathBuf {
    let mut netlist = std::env::temp_dir();
    netlist.push(format!(
        "ser_service_bench_{}_{}_{tag}.bench",
        std::process::id(),
        circuit.name()
    ));
    std::fs::write(&netlist, write_bench(circuit)).expect("write bench netlist");
    netlist
}

/// Serves `circuit` over loopback TCP and measures warm v2-envelope
/// round trips from one client.
fn bench_tcp(circuit: &Arc<Circuit>, threads: usize, site_requests: usize) -> TcpRecord {
    let netlist = materialize(circuit, "tcp");
    let path = netlist.to_str().expect("utf-8 temp path").to_owned();

    let engine = Arc::new(ProtocolEngine::new(
        Arc::new(fresh_service(threads)),
        EngineConfig::default(),
    ));
    let mut transport = TcpTransport::bind("127.0.0.1:0").expect("bind loopback");
    let addr = transport.local_addr();
    let handle = transport.shutdown_handle();
    let server = std::thread::spawn(move || serve(&mut transport, &engine));

    let stream = TcpStream::connect(addr).expect("connect loopback");
    stream.set_nodelay(true).expect("nodelay");
    let mut reader = BufReader::new(stream.try_clone().expect("clone stream"));
    let mut writer = stream;
    let mut line = String::new();
    let mut round_trip = |request: &str| -> String {
        writer.write_all(request.as_bytes()).expect("send");
        writer.write_all(b"\n").expect("send");
        writer.flush().expect("send");
        line.clear();
        reader.read_line(&mut line).expect("reply");
        line.clone()
    };

    // Warm the session (pays compile + plan build once).
    let reply = round_trip(&format!(
        "{{\"v\": 2, \"op\": \"sweep\", \"netlist\": \"{path}\", \"top\": 1}}"
    ));
    assert!(reply.contains("\"frame\": \"result\""), "{reply}");

    // Warm single-site round trips.
    let sites: Vec<String> = circuit
        .node_ids()
        .map(|id| circuit.node(id).name().to_owned())
        .collect();
    let mut latencies_us: Vec<f64> = Vec::with_capacity(site_requests);
    let t = Instant::now();
    for i in 0..site_requests {
        let request = format!(
            "{{\"v\": 2, \"op\": \"site\", \"netlist\": \"{path}\", \"node\": \"{}\"}}",
            sites[i % sites.len()]
        );
        let t_one = Instant::now();
        let reply = round_trip(&request);
        latencies_us.push(t_one.elapsed().as_secs_f64() * 1e6);
        debug_assert!(reply.contains("p_sensitized"), "{reply}");
    }
    let round_trips_per_sec = site_requests as f64 / t.elapsed().as_secs_f64();
    latencies_us.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    let p50_us = latencies_us[latencies_us.len() / 2];

    // One warm whole-circuit sweep over the wire (response cache is
    // off in `fresh_service`, so this is kernel + serialization).
    let t = Instant::now();
    let reply = round_trip(&format!(
        "{{\"v\": 2, \"op\": \"sweep\", \"netlist\": \"{path}\", \"top\": 1}}"
    ));
    let sweep_round_trip_ms = t.elapsed().as_secs_f64() * 1e3;
    assert!(reply.contains("\"warm\": true"), "{reply}");

    drop(writer);
    drop(reader);
    handle.shutdown();
    server.join().expect("server thread").expect("serve ok");
    let _ = std::fs::remove_file(&netlist);
    TcpRecord {
        round_trips_per_sec,
        p50_us,
        sweep_round_trip_ms,
    }
}

/// Measures the cancel round trip over the wire: a whole-circuit sweep
/// streams progress on one connection, a `cancel` envelope goes out on
/// a second the moment the first progress frame lands, and the clock
/// stops when the `cancelled` error frame reaches the swept
/// connection. Returns the median over `samples` landed cancels.
fn bench_cancel_latency(circuit: &Arc<Circuit>, threads: usize, samples: usize) -> f64 {
    let netlist = materialize(circuit, "cancel");
    let path = netlist.to_str().expect("utf-8 temp path").to_owned();

    // Small site batches give the sweep many cancellation checkpoints,
    // so the cancel reliably lands mid-flight instead of racing a
    // nearly-finished request.
    let service = SerService::new(SerServiceConfig {
        max_sessions: 8,
        threads,
        sweep_batch_sites: 8,
        max_sweep_responses: 0,
        plan_cache_dir: None,
        plan_cache_max_bytes: None,
        ..SerServiceConfig::default()
    });
    let engine = Arc::new(ProtocolEngine::new(
        Arc::new(service),
        EngineConfig::default(),
    ));
    let mut transport = TcpTransport::bind("127.0.0.1:0").expect("bind loopback");
    let addr = transport.local_addr();
    let handle = transport.shutdown_handle();
    let server = std::thread::spawn(move || serve(&mut transport, &engine));

    let connect = || {
        let stream = TcpStream::connect(addr).expect("connect loopback");
        stream.set_nodelay(true).expect("nodelay");
        let reader = BufReader::new(stream.try_clone().expect("clone stream"));
        (reader, stream)
    };
    let (mut swept_reader, mut swept) = connect();
    let (mut cancel_reader, mut canceller) = connect();
    let send = |writer: &mut TcpStream, request: String| {
        writer.write_all(request.as_bytes()).expect("send");
        writer.write_all(b"\n").expect("send");
        writer.flush().expect("send");
    };

    // Warm the session so every sample measures cancellation, not the
    // one-time compile + plan build.
    let mut line = String::new();
    send(
        &mut swept,
        format!("{{\"v\": 2, \"op\": \"sweep\", \"netlist\": \"{path}\", \"top\": 1}}"),
    );
    swept_reader.read_line(&mut line).expect("warm reply");
    assert!(line.contains("\"frame\": \"result\""), "{line}");

    let mut latencies: Vec<f64> = Vec::with_capacity(samples);
    let mut attempt = 0;
    while latencies.len() < samples && attempt < samples * 4 {
        attempt += 1;
        let id = format!("cancel-{attempt}");
        send(
            &mut swept,
            format!(
                "{{\"v\": 2, \"id\": \"{id}\", \"op\": \"sweep\", \"netlist\": \"{path}\", \"progress\": true}}"
            ),
        );
        // Wait until the sweep is demonstrably in flight (or already
        // over — then this attempt can't measure a cancel).
        loop {
            line.clear();
            swept_reader.read_line(&mut line).expect("frame");
            assert!(!line.contains("\"frame\": \"error\""), "{line}");
            if line.contains("\"frame\": \"progress\"") || line.contains("\"frame\": \"result\"") {
                break;
            }
        }
        if line.contains("\"frame\": \"result\"") {
            continue;
        }
        let t = Instant::now();
        send(
            &mut canceller,
            format!("{{\"v\": 2, \"op\": \"cancel\", \"target\": \"{id}\"}}"),
        );
        // Drain to the swept connection's terminal frame; the clock
        // stops the moment it arrives.
        let cancelled = loop {
            line.clear();
            swept_reader.read_line(&mut line).expect("frame");
            if line.contains("\"frame\": \"error\"") {
                break true;
            }
            if line.contains("\"frame\": \"result\"") {
                break false;
            }
        };
        let elapsed = t.elapsed().as_secs_f64();
        if cancelled {
            assert!(line.contains("cancelled"), "{line}");
            latencies.push(elapsed);
        }
        // The cancel op's own reply — read outside the measured path.
        line.clear();
        cancel_reader.read_line(&mut line).expect("cancel reply");
        assert!(line.contains("\"frame\": \"result\""), "{line}");
    }
    assert!(!latencies.is_empty(), "no cancel ever landed mid-sweep");

    drop(swept);
    drop(swept_reader);
    drop(canceller);
    drop(cancel_reader);
    handle.shutdown();
    server.join().expect("server thread").expect("serve ok");
    let _ = std::fs::remove_file(&netlist);
    median_ms(&mut latencies)
}
