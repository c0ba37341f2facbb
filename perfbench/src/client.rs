//! Clients of the protocol: a loopback TCP connection to a spawned
//! `ser-cli serve` daemon, and an in-memory connection to an in-process
//! `ProtocolEngine` — the same request lines, one layer apart.

use std::io::{self, BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::Path;
use std::process::{Child, ChildStderr, Command, Stdio};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;

use ser_service::{Connection, FrameSink, LineStream, ProtocolEngine};

/// Executor threads of every daemon, engine and service the benchmark
/// starts.
pub const THREADS: usize = 2;

/// Whether a frame ends its reply. Frames open with
/// `{"v": 2, "id": ..., "frame": "<kind>"`.
fn is_terminal(frame: &str) -> bool {
    let head = &frame[..frame.len().min(96)];
    head.contains("\"frame\": \"result\"") || head.contains("\"frame\": \"error\"")
}

/// Sends one request line and collects every frame of its reply.
pub trait Client {
    fn call(&mut self, line: &str) -> io::Result<Vec<String>>;
}

/// One loopback TCP connection.
pub struct TcpClient {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    buf: Vec<u8>,
}

impl TcpClient {
    pub fn connect(addr: &str) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(TcpClient {
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
            buf: Vec::with_capacity(4096),
        })
    }
}

impl Client for TcpClient {
    fn call(&mut self, line: &str) -> io::Result<Vec<String>> {
        let mut request = String::with_capacity(line.len() + 1);
        request.push_str(line);
        request.push('\n');
        self.writer.write_all(request.as_bytes())?;
        let mut frames = Vec::new();
        loop {
            self.buf.clear();
            if self.reader.read_until(b'\n', &mut self.buf)? == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "daemon closed the connection mid-reply",
                ));
            }
            while self.buf.last() == Some(&b'\n') {
                self.buf.pop();
            }
            let frame = String::from_utf8(std::mem::take(&mut self.buf))
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
            let done = is_terminal(&frame);
            frames.push(frame);
            if done {
                return Ok(frames);
            }
        }
    }
}

/// A spawned `ser-cli serve --tcp 127.0.0.1:0` process.
pub struct Daemon {
    child: Child,
    pub addr: String,
    // Held open so the daemon's stderr never turns into a write error.
    _stderr: BufReader<ChildStderr>,
}

impl Daemon {
    /// Spawns the daemon and waits for its `listening on` line.
    pub fn spawn(program: &Path, cwd: &Path) -> io::Result<Daemon> {
        let mut child = Command::new(program)
            .args([
                "serve",
                "--tcp",
                "127.0.0.1:0",
                "--threads",
                &THREADS.to_string(),
            ])
            .current_dir(cwd)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()?;
        let mut stderr = BufReader::new(child.stderr.take().expect("stderr is piped"));
        let mut line = String::new();
        stderr.read_line(&mut line)?;
        let addr = line
            .trim()
            .strip_prefix("ser-service listening on ")
            .map(str::to_owned);
        match addr {
            Some(addr) => Ok(Daemon {
                child,
                addr,
                _stderr: stderr,
            }),
            None => {
                let _ = child.kill();
                let _ = child.wait();
                Err(io::Error::other(format!(
                    "daemon did not report its address: {line:?}"
                )))
            }
        }
    }

    /// The daemon's peak resident set (`VmHWM`), in MB.
    pub fn peak_rss_mb(&self) -> io::Result<f64> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id()))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map(|kb| kb / 1024.0)
            .ok_or_else(|| io::Error::other("no VmHWM in /proc status"))
    }
}

/// Dropping a daemon kills it and waits for it to exit.
impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

struct ChannelLines(Receiver<String>);

impl LineStream for ChannelLines {
    fn next_line(&mut self) -> io::Result<Option<String>> {
        Ok(self.0.recv().ok())
    }
}

/// Splits the engine's output into frames and forwards each one.
struct ChannelWriter {
    pending: Vec<u8>,
    frames: Sender<String>,
}

impl Write for ChannelWriter {
    fn write(&mut self, bytes: &[u8]) -> io::Result<usize> {
        self.pending.extend_from_slice(bytes);
        while let Some(end) = self.pending.iter().position(|&b| b == b'\n') {
            let frame: Vec<u8> = self.pending.drain(..=end).take(end).collect();
            let frame = String::from_utf8(frame)
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
            self.frames
                .send(frame)
                .map_err(|_| io::Error::new(io::ErrorKind::BrokenPipe, "client gone"))?;
        }
        Ok(bytes.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// An in-memory connection served by `ProtocolEngine::serve_connection`
/// on its own thread.
pub struct MemClient {
    lines: Option<Sender<String>>,
    frames: Receiver<String>,
    thread: Option<JoinHandle<io::Result<()>>>,
}

impl MemClient {
    pub fn open(engine: &Arc<ProtocolEngine>) -> Self {
        let (line_tx, line_rx) = channel();
        let (frame_tx, frame_rx) = channel();
        let conn = Connection {
            lines: Box::new(ChannelLines(line_rx)),
            sink: FrameSink::new(ChannelWriter {
                pending: Vec::new(),
                frames: frame_tx,
            }),
            peer: "perfbench".to_owned(),
        };
        let engine = Arc::clone(engine);
        MemClient {
            lines: Some(line_tx),
            frames: frame_rx,
            thread: Some(std::thread::spawn(move || engine.serve_connection(conn))),
        }
    }
}

impl Client for MemClient {
    fn call(&mut self, line: &str) -> io::Result<Vec<String>> {
        let closed = || io::Error::new(io::ErrorKind::BrokenPipe, "engine connection ended");
        self.lines
            .as_ref()
            .ok_or_else(closed)?
            .send(line.to_owned())
            .map_err(|_| closed())?;
        let mut frames = Vec::new();
        loop {
            let frame = self.frames.recv().map_err(|_| closed())?;
            let done = is_terminal(&frame);
            frames.push(frame);
            if done {
                return Ok(frames);
            }
        }
    }
}

impl Drop for MemClient {
    fn drop(&mut self) {
        // Ending the line stream ends `serve_connection`; join it.
        self.lines = None;
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}
