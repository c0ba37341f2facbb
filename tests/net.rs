//! Loopback TCP integration tests: the std-only front door must serve
//! the same bytes the in-process API computes — concurrently, with
//! streaming frames, auth, quotas, and a graceful shutdown.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use ser_suite::epp::AnalysisSession;
use ser_suite::netlist::{parse_bench, Circuit};
use ser_suite::service::json::{self, JsonValue};
use ser_suite::service::{
    serve, EngineConfig, ProtocolEngine, Request, SerService, SerServiceConfig, SweepRequest,
    TcpShutdownHandle, TcpTransport,
};

/// A running loopback server and the service it fronts.
struct Server {
    addr: std::net::SocketAddr,
    handle: TcpShutdownHandle,
    thread: Option<std::thread::JoinHandle<std::io::Result<()>>>,
    service: Arc<SerService>,
}

impl Server {
    fn start(config: EngineConfig) -> Server {
        let service = Arc::new(SerService::new(SerServiceConfig {
            max_sessions: 4,
            threads: 2,
            sweep_batch_sites: 8,
            ..SerServiceConfig::default()
        }));
        let engine = Arc::new(ProtocolEngine::new(Arc::clone(&service), config));
        let mut transport = TcpTransport::bind("127.0.0.1:0").expect("bind loopback");
        let addr = transport.local_addr();
        let handle = transport.shutdown_handle();
        let thread = std::thread::spawn(move || serve(&mut transport, &engine));
        Server {
            addr,
            handle,
            thread: Some(thread),
            service,
        }
    }

    fn connect(&self) -> Client {
        let stream = TcpStream::connect(self.addr).expect("connect loopback");
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        Client {
            reader: BufReader::new(stream.try_clone().unwrap()),
            stream,
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.handle.shutdown();
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

struct Client {
    reader: BufReader<TcpStream>,
    stream: TcpStream,
}

impl Client {
    fn send(&mut self, line: &str) {
        self.stream.write_all(line.as_bytes()).unwrap();
        self.stream.write_all(b"\n").unwrap();
        self.stream.flush().unwrap();
    }

    fn recv(&mut self) -> JsonValue {
        let mut line = String::new();
        assert!(
            self.reader.read_line(&mut line).expect("read frame") > 0,
            "server closed the connection unexpectedly"
        );
        json::parse_value(line.trim_end()).unwrap_or_else(|e| panic!("bad frame `{line}`: {e}"))
    }

    /// Reads frames until the final `result`/`error` of one request;
    /// returns `(progress_and_chunk_frames, final_frame)`.
    fn recv_reply(&mut self) -> (Vec<JsonValue>, JsonValue) {
        let mut streamed = Vec::new();
        loop {
            let frame = self.recv();
            match frame.get("frame").and_then(JsonValue::as_str) {
                Some("progress" | "chunk") => streamed.push(frame),
                Some("result" | "error") => return (streamed, frame),
                other => panic!("unexpected frame kind {other:?}: {frame}"),
            }
        }
    }

    /// True once the server has closed the stream (EOF).
    fn at_eof(&mut self) -> bool {
        let mut line = String::new();
        matches!(self.reader.read_line(&mut line), Ok(0))
    }
}

fn write_netlist(name: &str, text: &str) -> PathBuf {
    let mut path = std::env::temp_dir();
    path.push(format!("ser_net_{}_{name}.bench", std::process::id()));
    std::fs::write(&path, text).unwrap();
    path
}

fn load(path: &PathBuf, name: &str) -> Circuit {
    parse_bench(&std::fs::read_to_string(path).unwrap(), name).unwrap()
}

const TOY: &str = "INPUT(a)\nINPUT(b)\nINPUT(c)\nOUTPUT(y)\nu = AND(a, b)\ny = OR(u, c)\n";

/// The acceptance scenario: a sweep served over loopback TCP is
/// bit-identical to `SerService::submit` in-process, with two clients
/// hammering the same server concurrently.
#[test]
fn concurrent_tcp_clients_match_in_process_bitwise() {
    let s298 = write_netlist("s298", {
        use ser_suite::netlist::write_bench;
        &write_bench(&ser_suite::gen::iscas89_like("s298").unwrap())
    });
    let toy = write_netlist("toy", TOY);
    let server = Server::start(EngineConfig::default());

    // In-process references, computed on an independent service.
    let reference = SerService::with_defaults();
    let c_s298: Arc<Circuit> = Arc::new(load(&s298, "s298"));
    let c_toy: Arc<Circuit> = Arc::new(load(&toy, "toy"));
    let sweep_s298 = reference
        .submit(&c_s298, Request::Sweep(SweepRequest::default()))
        .unwrap();
    let sweep_toy = reference
        .submit(&c_toy, Request::Sweep(SweepRequest::default()))
        .unwrap();

    let clients: Vec<_> = [(&s298, &c_s298, &sweep_s298), (&toy, &c_toy, &sweep_toy)]
        .into_iter()
        .enumerate()
        .map(|(i, (path, circuit, expected))| {
            let path = path.to_str().unwrap().to_owned();
            let circuit = Arc::clone(circuit);
            let expected_sweep = expected.as_sweep().unwrap().p_sensitized().to_vec();
            let mut client = server.connect();
            std::thread::spawn(move || {
                // Chunked whole-circuit sweep: every per-site value.
                client.send(&format!(
                    r#"{{"v": 2, "id": "c{i}", "op": "sweep", "netlist": "{path}", "chunk_sites": 16, "top": 0}}"#
                ));
                let (streamed, result) = client.recv_reply();
                assert_eq!(
                    result.get("frame").and_then(JsonValue::as_str),
                    Some("result"),
                    "{result}"
                );
                assert_eq!(
                    result.get("nodes").and_then(JsonValue::as_count),
                    Some(circuit.len() as u64)
                );
                let mut wire: Vec<f64> = Vec::new();
                for frame in &streamed {
                    let JsonValue::Arr(sites) = frame.get("sites").unwrap() else {
                        panic!("chunk sites");
                    };
                    for site in sites {
                        wire.push(site.get("p_sensitized").and_then(JsonValue::as_f64).unwrap());
                    }
                }
                assert_eq!(wire.len(), expected_sweep.len());
                for (pos, (w, e)) in wire.iter().zip(&expected_sweep).enumerate() {
                    assert_eq!(
                        w.to_bits(),
                        e.to_bits(),
                        "site {pos}: TCP sweep != in-process submit"
                    );
                }
                // A handful of single-site requests, same identity.
                for (pos, site) in circuit.node_ids().enumerate().take(5) {
                    client.send(&format!(
                        r#"{{"v": 2, "op": "site", "netlist": "{path}", "node": "{}"}}"#,
                        circuit.node(site).name()
                    ));
                    let (_, result) = client.recv_reply();
                    let expected = AnalysisSession::new(Arc::clone(&circuit))
                        .unwrap()
                        .site(site)
                        .p_sensitized();
                    assert_eq!(
                        result
                            .get("p_sensitized")
                            .and_then(JsonValue::as_f64)
                            .unwrap()
                            .to_bits(),
                        expected.to_bits(),
                        "site {pos}"
                    );
                }
            })
        })
        .collect();
    for c in clients {
        c.join().expect("client thread");
    }

    // The in-process half of the acceptance check once more, against
    // the *server's* service: same arena the wire values came from.
    let via_server = server
        .service
        .submit(&c_s298, Request::Sweep(SweepRequest::default()))
        .unwrap();
    assert_eq!(
        via_server.as_sweep().unwrap(),
        sweep_s298.as_sweep().unwrap()
    );
    for p in [&s298, &toy] {
        let _ = std::fs::remove_file(p);
    }
}

/// A sequential Monte-Carlo request over TCP streams at least two
/// progress frames before its final frame (the acceptance criterion),
/// and the final estimate matches the in-process call bitwise.
#[test]
fn sequential_monte_carlo_streams_over_tcp() {
    let toy = write_netlist("mc", TOY);
    let path = toy.to_str().unwrap();
    let server = Server::start(EngineConfig::default());
    let mut client = server.connect();
    client.send(&format!(
        r#"{{"v": 2, "id": "m", "op": "monte_carlo", "netlist": "{path}", "node": "a", "target_error": 0.04, "seed": 5}}"#
    ));
    let (streamed, result) = client.recv_reply();
    let progress: Vec<_> = streamed
        .iter()
        .filter(|f| f.get("frame").and_then(JsonValue::as_str) == Some("progress"))
        .collect();
    assert!(
        progress.len() >= 2,
        "got {} progress frames: {streamed:?}",
        progress.len()
    );

    let circuit: Arc<Circuit> = Arc::new(load(&toy, "mc"));
    let direct = server
        .service
        .submit(
            &circuit,
            Request::MonteCarlo(ser_suite::service::MonteCarloRequest {
                site: circuit.find("a").unwrap(),
                vectors: 10_000,
                target_error: Some(0.04),
                seed: 5,
            }),
        )
        .unwrap();
    let direct = direct.as_monte_carlo().unwrap();
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
    let _ = std::fs::remove_file(&toy);
}

/// Auth handshake and per-client quota over TCP.
#[test]
fn auth_and_quota_over_tcp() {
    let toy = write_netlist("authq", TOY);
    let path = toy.to_str().unwrap();
    let server = Server::start(EngineConfig {
        auth_token: Some("sesame".to_owned()),
        quota: Some(2),
        max_inflight: 2,
    });

    // No hello: refused and closed.
    let mut client = server.connect();
    client.send(r#"{"v": 2, "op": "stats"}"#);
    let (_, err) = client.recv_reply();
    assert_eq!(
        err.get("error")
            .unwrap()
            .get("code")
            .and_then(JsonValue::as_str),
        Some("unauthorized")
    );
    assert!(client.at_eof(), "connection closed after auth failure");

    // Hello + two ops (the quota), third refused and closed.
    let mut client = server.connect();
    client.send(r#"{"v": 2, "op": "hello", "token": "sesame"}"#);
    let (_, hello) = client.recv_reply();
    assert_eq!(hello.get("op").and_then(JsonValue::as_str), Some("hello"));
    client.send(&format!(
        r#"{{"v": 2, "id": "s", "op": "site", "netlist": "{path}", "node": "y"}}"#
    ));
    let (_, site) = client.recv_reply();
    assert_eq!(
        site.get("frame").and_then(JsonValue::as_str),
        Some("result")
    );
    assert_eq!(site.get("op").and_then(JsonValue::as_str), Some("site"));
    client.send(r#"{"v": 2, "op": "stats"}"#);
    let (_, stats) = client.recv_reply();
    assert_eq!(stats.get("op").and_then(JsonValue::as_str), Some("stats"));
    client.send(r#"{"v": 2, "op": "stats"}"#);
    let (_, refused) = client.recv_reply();
    assert_eq!(
        refused
            .get("error")
            .unwrap()
            .get("code")
            .and_then(JsonValue::as_str),
        Some("quota_exceeded")
    );
    assert!(client.at_eof(), "connection closed after quota");
    let _ = std::fs::remove_file(&toy);
}

/// Garbage and truncated lines get structured error frames without
/// killing the connection or the server.
#[test]
fn malformed_tcp_lines_get_error_frames() {
    let toy = write_netlist("garbage", TOY);
    let path = toy.to_str().unwrap();
    let server = Server::start(EngineConfig::default());
    let mut client = server.connect();
    for bad in [
        "not json",
        r#"{"v": 2, "op": "sweep", "netlist": "x""#, // truncated
        r#"{"v": 9, "op": "stats"}"#,
    ] {
        client.send(bad);
        let (_, err) = client.recv_reply();
        assert_eq!(
            err.get("frame").and_then(JsonValue::as_str),
            Some("error"),
            "{err}"
        );
    }
    // Still serving afterwards.
    client.send(&format!(
        r#"{{"v": 2, "op": "site", "netlist": "{path}", "node": "y"}}"#
    ));
    let (_, ok) = client.recv_reply();
    assert_eq!(ok.get("frame").and_then(JsonValue::as_str), Some("result"));
    let _ = std::fs::remove_file(&toy);
}

/// Graceful shutdown: the serve loop returns, in-flight connections
/// close, and the port stops accepting.
#[test]
fn graceful_shutdown_joins_the_server() {
    let server = Server::start(EngineConfig::default());
    let addr = server.addr;
    // An idle connection is open when shutdown arrives.
    let idle = server.connect();
    server.handle.shutdown();
    let mut server = server;
    let result = server
        .thread
        .take()
        .unwrap()
        .join()
        .expect("serve thread joins");
    result.expect("serve returns cleanly");
    drop(idle);
    // New connections are not served: either refused outright, or
    // accepted by the OS backlog and immediately closed.
    if let Ok(stream) = TcpStream::connect(addr) {
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        let mut reader = BufReader::new(stream);
        let mut line = String::new();
        assert_eq!(reader.read_line(&mut line).unwrap_or(0), 0, "not served");
    }
}

/// Idle-connection reaping: a silent client is closed once the idle
/// timeout passes, the reap is counted in service stats, and clients
/// that keep talking are untouched.
#[test]
fn idle_connections_are_reaped_and_counted() {
    let toy = write_netlist("idle", TOY);
    let path = toy.to_str().unwrap();

    // Hand-rolled server so the transport gets an idle timeout.
    let service = Arc::new(SerService::new(SerServiceConfig {
        max_sessions: 4,
        threads: 2,
        ..SerServiceConfig::default()
    }));
    let engine = Arc::new(ProtocolEngine::new(
        Arc::clone(&service),
        EngineConfig::default(),
    ));
    let mut transport = TcpTransport::bind("127.0.0.1:0")
        .expect("bind loopback")
        .with_idle_timeout(Duration::from_millis(250), service.idle_reap_counter());
    let addr = transport.local_addr();
    let handle = transport.shutdown_handle();
    let thread = std::thread::spawn(move || serve(&mut transport, &engine));

    let connect = || {
        let stream = TcpStream::connect(addr).expect("connect loopback");
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        Client {
            reader: BufReader::new(stream.try_clone().unwrap()),
            stream,
        }
    };

    // A served request, then silence: the server closes the stream
    // (the blocking read below is the synchronization — no sleeps).
    let mut idle = connect();
    idle.send(&format!(
        r#"{{"v": 2, "op": "site", "netlist": "{path}", "node": "y"}}"#
    ));
    let (_, result) = idle.recv_reply();
    assert_eq!(
        result.get("frame").and_then(JsonValue::as_str),
        Some("result")
    );
    assert!(idle.at_eof(), "idle connection reaped via EOF");
    assert_eq!(service.stats().idle_reaped, 1);

    // The server is still serving, and the count travels the wire.
    let mut live = connect();
    live.send(r#"{"v": 2, "op": "stats"}"#);
    let (_, stats) = live.recv_reply();
    assert_eq!(
        stats.get("idle_reaped").and_then(JsonValue::as_count),
        Some(1)
    );

    handle.shutdown();
    thread.join().expect("serve thread").expect("serve returns");
    let _ = std::fs::remove_file(&toy);
}
