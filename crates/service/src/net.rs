//! The std-only TCP front door.
//!
//! [`TcpTransport`] implements [`Transport`] over a plain
//! `std::net::TcpListener`: each accepted socket becomes one
//! [`Connection`] served on its own thread by
//! [`serve`](crate::protocol::serve), all sharing one
//! [`ProtocolEngine`](crate::protocol::ProtocolEngine) — and through
//! it one warm [`SerService`](crate::SerService), so every client
//! benefits from every other client's compiled sessions and cached
//! responses. The suite is offline and dependency-free by
//! construction, so there is no async runtime and no TLS here: just
//! blocking sockets, a read timeout, and threads.
//!
//! Graceful shutdown is cooperative: [`TcpShutdownHandle::shutdown`]
//! raises a flag and pokes the listener awake. The accept loop stops
//! handing out connections, in-flight requests run to completion, and
//! per-connection readers (which poll the flag on a short read
//! timeout) close within `SHUTDOWN_POLL` (200 ms) — after which `serve`
//! joins every connection thread and returns.

use std::io::{self, BufRead, BufReader};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::protocol::{Connection, FrameSink, LineStream, Transport};

/// How long a blocked connection read waits before re-checking the
/// shutdown flag. The bound on how stale a shutdown can look to an
/// idle client.
const SHUTDOWN_POLL: Duration = Duration::from_millis(200);

/// Back-off before retrying a failed `accept` — long enough that an
/// out-of-file-descriptors condition doesn't busy-spin, short enough
/// that recovery is prompt once fds free up.
const ACCEPT_RETRY_DELAY: Duration = Duration::from_millis(100);

/// How long one frame write may stall before the connection is
/// declared dead. Progress frames are written from shared executor
/// workers, so a client that stops reading (full receive window)
/// would otherwise block a worker indefinitely; with this timeout the
/// worker stalls **at most once** per connection — the first failed
/// write kills the [`FrameSink`] and every later send fails fast.
const WRITE_STALL_LIMIT: Duration = Duration::from_secs(10);

/// A TCP server socket serving protocol connections. See the
/// [module docs](self).
///
/// # Examples
///
/// ```no_run
/// use std::sync::Arc;
/// use ser_service::{serve, EngineConfig, ProtocolEngine, SerService, TcpTransport};
///
/// let service = Arc::new(SerService::with_defaults());
/// let engine = Arc::new(ProtocolEngine::new(service, EngineConfig::default()));
/// let mut transport = TcpTransport::bind("127.0.0.1:7453")?;
/// let handle = transport.shutdown_handle(); // keep, to stop the server later
/// serve(&mut transport, &engine)?;          // blocks until handle.shutdown()
/// # drop(handle);
/// # Ok::<(), std::io::Error>(())
/// ```
#[derive(Debug)]
pub struct TcpTransport {
    listener: TcpListener,
    local: SocketAddr,
    shutdown: Arc<AtomicBool>,
    idle_timeout: Option<Duration>,
    idle_reaped: Arc<AtomicU64>,
}

/// Stops a [`TcpTransport`] from another thread. Cloneable; any clone
/// can shut the server down, all observe the same flag.
#[derive(Debug, Clone)]
pub struct TcpShutdownHandle {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
}

impl TcpShutdownHandle {
    /// Initiates a graceful shutdown: no new connections are accepted,
    /// in-flight requests finish, connection readers close within
    /// `SHUTDOWN_POLL` (200 ms). Idempotent.
    pub fn shutdown(&self) {
        self.shutdown.store(true, Ordering::Release);
        // Unblock the accept call; the dummy connection is recognized
        // (flag already set) and dropped, never served. A wildcard
        // bind address (0.0.0.0 / ::) is not connectable everywhere,
        // so the poke targets loopback on the bound port instead.
        let mut poke = self.addr;
        if poke.ip().is_unspecified() {
            poke.set_ip(match poke {
                SocketAddr::V4(_) => std::net::IpAddr::V4(std::net::Ipv4Addr::LOCALHOST),
                SocketAddr::V6(_) => std::net::IpAddr::V6(std::net::Ipv6Addr::LOCALHOST),
            });
        }
        let _ = TcpStream::connect_timeout(&poke, SHUTDOWN_POLL);
    }
}

impl TcpTransport {
    /// Binds the listener. Use port 0 to let the OS pick (read it back
    /// with [`local_addr`](Self::local_addr)).
    ///
    /// # Errors
    ///
    /// Propagates bind failures (port in use, permission).
    pub fn bind(addr: impl ToSocketAddrs) -> io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        Ok(TcpTransport {
            listener,
            local,
            shutdown: Arc::new(AtomicBool::new(false)),
            idle_timeout: None,
            idle_reaped: Arc::new(AtomicU64::new(0)),
        })
    }

    /// Reap connections that go `timeout` without delivering a single
    /// byte: the reader returns end-of-stream, the serve loop closes
    /// the connection, and `reaped` (typically
    /// [`SerService::idle_reap_counter`](crate::SerService::idle_reap_counter),
    /// so reaps surface in [`ServiceStats`](crate::ServiceStats)) is
    /// incremented. The timer resets on every received byte, so a
    /// slow-trickling client is *not* idle; a request already in
    /// flight is unaffected — reaping only interrupts the wait for the
    /// **next** line.
    #[must_use]
    pub fn with_idle_timeout(mut self, timeout: Duration, reaped: Arc<AtomicU64>) -> Self {
        self.idle_timeout = Some(timeout);
        self.idle_reaped = reaped;
        self
    }

    /// The bound address (with the OS-assigned port resolved).
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.local
    }

    /// A handle that can stop this server from any thread.
    #[must_use]
    pub fn shutdown_handle(&self) -> TcpShutdownHandle {
        TcpShutdownHandle {
            addr: self.local,
            shutdown: Arc::clone(&self.shutdown),
        }
    }
}

impl Transport for TcpTransport {
    /// Blocks for the next client. A daemon's accept loop must outlive
    /// transient failures: `ECONNABORTED` (a client reset between
    /// connect and accept), `EMFILE`/`ENFILE` (fd pressure under
    /// thread-per-connection load) and per-socket setup errors drop
    /// *that* connection attempt — after a short back-off for the
    /// resource-exhaustion cases — and keep accepting; only shutdown
    /// ends the loop.
    fn accept(&mut self) -> io::Result<Option<Connection>> {
        loop {
            if self.shutdown.load(Ordering::Acquire) {
                return Ok(None);
            }
            let (stream, peer) = match self.listener.accept() {
                Ok(accepted) => accepted,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    // Back off so an out-of-fds condition doesn't spin,
                    // then retry (re-checking the shutdown flag).
                    std::thread::sleep(ACCEPT_RETRY_DELAY);
                    continue;
                }
            };
            if self.shutdown.load(Ordering::Acquire) {
                // The shutdown poke (or a client racing it): drop it.
                return Ok(None);
            }
            let configured = (|| -> io::Result<TcpStream> {
                // Frames are small and latency-bound: without NODELAY,
                // Nagle on the reply side plus the client's delayed ACK
                // costs ~40ms per round trip on loopback.
                stream.set_nodelay(true)?;
                // A reply write that cannot make progress (client
                // stopped reading) fails after this bound instead of
                // pinning an executor worker forever.
                stream.set_write_timeout(Some(WRITE_STALL_LIMIT))?;
                // The read half polls the shutdown flag; one socket,
                // two handles (reads and writes don't contend).
                stream.set_read_timeout(Some(SHUTDOWN_POLL))?;
                stream.try_clone()
            })();
            let reader = match configured {
                Ok(reader) => reader,
                // A socket that fails setup (already reset, fd clone
                // refused) is this connection's problem, not the
                // daemon's: drop it and accept the next client.
                Err(_) => continue,
            };
            return Ok(Some(Connection {
                lines: Box::new(TcpLines {
                    reader: BufReader::new(reader),
                    pending: Vec::new(),
                    shutdown: Arc::clone(&self.shutdown),
                    idle_timeout: self.idle_timeout,
                    last_activity: Instant::now(),
                    reaped: Arc::clone(&self.idle_reaped),
                }),
                sink: FrameSink::new(stream),
                peer: peer.to_string(),
            }));
        }
    }
}

/// Line reader over a TCP stream with a read timeout, so a connection
/// blocked on an idle client still notices shutdown.
struct TcpLines {
    reader: BufReader<TcpStream>,
    /// Partial line carried across timeouts, as **raw bytes**: a
    /// `String`-based `read_line` would discard consumed bytes when a
    /// timeout lands mid-multibyte-character (its UTF-8 guard rolls
    /// the buffer back, but the socket has already given the bytes
    /// up); `read_until` into a byte buffer preserves every consumed
    /// byte across timeout windows and TCP segment boundaries, and
    /// UTF-8 is validated once per complete line.
    pending: Vec<u8>,
    shutdown: Arc<AtomicBool>,
    /// Reap this connection once no byte has arrived for this long
    /// (`None` = never). Checked on the same [`SHUTDOWN_POLL`] wakeups
    /// that watch the shutdown flag, so reaping needs no extra thread
    /// and lands within one poll interval of the deadline.
    idle_timeout: Option<Duration>,
    /// When the last byte arrived (or the connection was accepted).
    last_activity: Instant,
    /// Server-wide count of idle-reaped connections.
    reaped: Arc<AtomicU64>,
}

impl TcpLines {
    /// Takes the accumulated bytes as one line (terminator stripped).
    /// Invalid UTF-8 becomes replacement characters, which the JSON
    /// parser then reports as a structured `parse` error — bad bytes
    /// are the client's bug to hear about, not grounds to kill the
    /// connection.
    fn take_line(&mut self) -> String {
        let bytes = std::mem::take(&mut self.pending);
        let mut line = String::from_utf8_lossy(&bytes).into_owned();
        while line.ends_with('\n') || line.ends_with('\r') {
            line.pop();
        }
        line
    }
}

impl LineStream for TcpLines {
    fn next_line(&mut self) -> io::Result<Option<String>> {
        // The idle clock measures the wait for *this* line, so it
        // starts now — time spent serving the previous request does
        // not count as idleness.
        self.last_activity = Instant::now();
        loop {
            if self.shutdown.load(Ordering::Acquire) {
                return Ok(None);
            }
            let before = self.pending.len();
            match self.reader.read_until(b'\n', &mut self.pending) {
                // EOF. A final unterminated fragment is still a line —
                // the parser reports the truncation instead of the
                // server swallowing it.
                Ok(0) => {
                    if self.pending.is_empty() {
                        return Ok(None);
                    }
                    return Ok(Some(self.take_line()));
                }
                Ok(_) => return Ok(Some(self.take_line())),
                Err(e)
                    if matches!(
                        e.kind(),
                        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                    ) =>
                {
                    // Timeout: whatever was read so far stays in
                    // `pending`. Any byte that did arrive this window
                    // resets the idle timer — only true silence reaps.
                    if self.pending.len() > before {
                        self.last_activity = Instant::now();
                    }
                    if let Some(limit) = self.idle_timeout {
                        if self.last_activity.elapsed() >= limit {
                            self.reaped.fetch_add(1, Ordering::Relaxed);
                            return Ok(None);
                        }
                    }
                    continue;
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
    }
}
