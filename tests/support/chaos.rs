//! Deterministic fault injection for the wire layer.
//!
//! A [`ChaosSchedule`] describes, from a fixed seed, exactly how one
//! connection misbehaves: reads that end early or error out, writes
//! torn into byte-sized segments, a hard failure planted mid-frame.
//! [`ChaosTransport`] applies a list of schedules to successive
//! connections of any inner [`Transport`] (connections beyond the list
//! pass through untouched), wrapping each [`Connection`]'s read and
//! write halves through its public `lines` and `sink` fields.
//!
//! Everything here is seeded and replayable: the same schedule against
//! the same request stream produces the same fault at the same byte.
//! That is what makes the chaos tests assertions, not lotteries — a
//! failing seed is a reproducer, and CI can pin a seed matrix.
//!
//! The harness never *adds* required behavior; it only takes away
//! guarantees the transport never promised (whole frames per write,
//! clean EOF). Anything it breaks was a real bug on a real socket.

use std::io::{self, Write};

use ser_suite::service::{Connection, LineStream, Transport};

/// xorshift64* — tiny, seedable, and good enough to scatter fault
/// points; the suite is offline so there is no external RNG to reach
/// for, and determinism is the point.
#[derive(Debug, Clone)]
struct ChaosRng(u64);

impl ChaosRng {
    fn new(seed: u64) -> Self {
        // xorshift has a zero fixed point; nudge it off.
        ChaosRng(seed | 1)
    }

    fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform-ish value in `0..n` (`n` ≥ 1).
    fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// One connection's misfortunes, fully determined by its fields (the
/// `seed` drives only *where* split points land, never *whether* a
/// fault fires). The default schedule injects nothing.
#[derive(Debug, Clone, Default)]
pub struct ChaosSchedule {
    /// Seed for the write-splitting RNG.
    pub seed: u64,
    /// Report end-of-stream after this many request lines, as if the
    /// client closed its send half.
    pub disconnect_after_lines: Option<usize>,
    /// Fail the read with `ConnectionReset` after this many request
    /// lines, as if the peer vanished.
    pub read_error_after_lines: Option<usize>,
    /// Tear every reply write into 1–3-byte segments, exercising
    /// partial-write handling (and mid-UTF-8 flushes) downstream.
    pub split_writes: bool,
    /// Fail the write side with `BrokenPipe` after exactly this many
    /// reply bytes — a disconnect planted mid-frame.
    pub tear_write_after_bytes: Option<u64>,
}

impl ChaosSchedule {
    /// A fault-free schedule with the given split seed.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        ChaosSchedule {
            seed,
            ..ChaosSchedule::default()
        }
    }

    /// See [`disconnect_after_lines`](Self::disconnect_after_lines).
    #[must_use]
    pub fn disconnect_after_lines(mut self, lines: usize) -> Self {
        self.disconnect_after_lines = Some(lines);
        self
    }

    /// See [`read_error_after_lines`](Self::read_error_after_lines).
    #[must_use]
    pub fn read_error_after_lines(mut self, lines: usize) -> Self {
        self.read_error_after_lines = Some(lines);
        self
    }

    /// See [`split_writes`](Self::split_writes).
    #[must_use]
    pub fn split_writes(mut self) -> Self {
        self.split_writes = true;
        self
    }

    /// See [`tear_write_after_bytes`](Self::tear_write_after_bytes).
    #[must_use]
    pub fn tear_write_after_bytes(mut self, bytes: u64) -> Self {
        self.tear_write_after_bytes = Some(bytes);
        self
    }
}

/// Wraps a [`Connection`]'s read and write halves with the faults of
/// `schedule`. The server must survive whatever comes out: close the
/// connection cleanly, release its permits, keep other connections'
/// replies bit-identical.
#[must_use]
fn inject(mut conn: Connection, schedule: &ChaosSchedule) -> Connection {
    let write = schedule.clone();
    conn.sink
        .wrap_writer(move |inner| Box::new(ChaosWriter::new(inner, &write)));
    conn.lines = Box::new(ChaosLines::new(conn.lines, schedule));
    conn
}

/// A [`Transport`] decorator: connection *i* is wrapped with schedule
/// *i*; connections past the end of the list pass through unfaulted
/// (the survivors whose replies must stay bit-identical).
pub struct ChaosTransport<T> {
    inner: T,
    schedules: Vec<ChaosSchedule>,
    accepted: usize,
}

impl<T: Transport> ChaosTransport<T> {
    /// Decorates `inner`, faulting its first `schedules.len()`
    /// connections.
    #[must_use]
    pub fn new(inner: T, schedules: Vec<ChaosSchedule>) -> Self {
        ChaosTransport {
            inner,
            schedules,
            accepted: 0,
        }
    }
}

impl<T: Transport> Transport for ChaosTransport<T> {
    fn accept(&mut self) -> io::Result<Option<Connection>> {
        let Some(conn) = self.inner.accept()? else {
            return Ok(None);
        };
        let faulted = match self.schedules.get(self.accepted) {
            Some(schedule) => inject(conn, schedule),
            None => conn,
        };
        self.accepted += 1;
        Ok(Some(faulted))
    }
}

/// The read-half fault: counts complete lines and then either reports
/// a clean end-of-stream or a reset, per the schedule.
struct ChaosLines {
    inner: Box<dyn LineStream>,
    lines: usize,
    disconnect_after: Option<usize>,
    error_after: Option<usize>,
}

impl ChaosLines {
    /// Wraps `inner` with the read faults of `schedule`.
    fn new(inner: Box<dyn LineStream>, schedule: &ChaosSchedule) -> Self {
        ChaosLines {
            inner,
            lines: 0,
            disconnect_after: schedule.disconnect_after_lines,
            error_after: schedule.read_error_after_lines,
        }
    }
}

impl LineStream for ChaosLines {
    fn next_line(&mut self) -> io::Result<Option<String>> {
        if let Some(limit) = self.error_after {
            if self.lines >= limit {
                return Err(io::Error::new(
                    io::ErrorKind::ConnectionReset,
                    "chaos: injected read error",
                ));
            }
        }
        if let Some(limit) = self.disconnect_after {
            if self.lines >= limit {
                return Ok(None);
            }
        }
        let line = self.inner.next_line()?;
        if line.is_some() {
            self.lines += 1;
        }
        Ok(line)
    }
}

/// The write-half fault: forwards at most a few bytes per `write` call
/// when splitting (callers loop via `write_all`, so frames still
/// arrive — in shreds), and plants a hard `BrokenPipe` at an exact
/// byte offset when tearing.
struct ChaosWriter<W> {
    inner: W,
    rng: ChaosRng,
    split: bool,
    tear_after: Option<u64>,
    written: u64,
}

impl<W: Write> ChaosWriter<W> {
    /// Wraps `inner` with the write faults of `schedule`.
    fn new(inner: W, schedule: &ChaosSchedule) -> Self {
        ChaosWriter {
            inner,
            rng: ChaosRng::new(schedule.seed),
            split: schedule.split_writes,
            tear_after: schedule.tear_write_after_bytes,
            written: 0,
        }
    }
}

impl<W: Write> Write for ChaosWriter<W> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        if buf.is_empty() {
            return Ok(0);
        }
        let mut take = buf.len();
        if let Some(limit) = self.tear_after {
            let remaining = limit.saturating_sub(self.written);
            if remaining == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::BrokenPipe,
                    "chaos: connection torn mid-frame",
                ));
            }
            // Emit exactly up to the tear point, so the failure lands
            // mid-frame at a reproducible byte.
            take = take.min(remaining as usize);
        }
        if self.split {
            take = take.min(1 + self.rng.below(3) as usize);
        }
        let sent = self.inner.write(&buf[..take])?;
        self.written += sent as u64;
        Ok(sent)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Script(Vec<String>);

    impl LineStream for Script {
        fn next_line(&mut self) -> io::Result<Option<String>> {
            if self.0.is_empty() {
                Ok(None)
            } else {
                Ok(Some(self.0.remove(0)))
            }
        }
    }

    fn lines(n: usize) -> Box<dyn LineStream> {
        Box::new(Script((0..n).map(|i| format!("line{i}")).collect()))
    }

    #[test]
    fn default_schedule_is_transparent() {
        let mut l = ChaosLines::new(lines(2), &ChaosSchedule::new(7));
        assert_eq!(l.next_line().unwrap().as_deref(), Some("line0"));
        assert_eq!(l.next_line().unwrap().as_deref(), Some("line1"));
        assert_eq!(l.next_line().unwrap(), None);

        let mut out = Vec::new();
        let mut w = ChaosWriter::new(&mut out, &ChaosSchedule::new(7));
        w.write_all(b"hello world").unwrap();
        assert_eq!(out, b"hello world");
    }

    #[test]
    fn disconnect_cuts_after_exactly_n_lines() {
        let schedule = ChaosSchedule::new(1).disconnect_after_lines(1);
        let mut l = ChaosLines::new(lines(5), &schedule);
        assert_eq!(l.next_line().unwrap().as_deref(), Some("line0"));
        assert_eq!(l.next_line().unwrap(), None);
    }

    #[test]
    fn read_error_fires_after_exactly_n_lines() {
        let schedule = ChaosSchedule::new(1).read_error_after_lines(2);
        let mut l = ChaosLines::new(lines(5), &schedule);
        assert!(l.next_line().unwrap().is_some());
        assert!(l.next_line().unwrap().is_some());
        let err = l.next_line().unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::ConnectionReset);
    }

    #[test]
    fn split_writes_deliver_every_byte_in_shreds() {
        let payload = b"frame with \xc3\xa9 multibyte content\n";
        let mut out = Vec::new();
        let mut w = ChaosWriter::new(&mut out, &ChaosSchedule::new(42).split_writes());
        // A single write call forwards at most 3 bytes...
        assert!(w.write(payload).unwrap() <= 3);
        // ...but write_all still lands the rest, byte-perfect.
        out.clear();
        let mut w = ChaosWriter::new(&mut out, &ChaosSchedule::new(42).split_writes());
        w.write_all(payload).unwrap();
        assert_eq!(out, payload);
    }

    #[test]
    fn split_schedule_is_deterministic_per_seed() {
        let shred = |seed: u64| -> Vec<usize> {
            let mut sizes = Vec::new();
            let mut out = Vec::new();
            let mut w = ChaosWriter::new(&mut out, &ChaosSchedule::new(seed).split_writes());
            let mut rest: &[u8] = b"0123456789abcdef0123456789abcdef";
            while !rest.is_empty() {
                let n = w.write(rest).unwrap();
                sizes.push(n);
                rest = &rest[n..];
            }
            sizes
        };
        assert_eq!(shred(9), shred(9));
        assert_ne!(shred(9), shred(10));
    }

    #[test]
    fn tear_lands_at_the_exact_byte() {
        let schedule = ChaosSchedule::new(3).tear_write_after_bytes(5);
        let mut w = ChaosWriter::new(Vec::new(), &schedule);
        let err = w.write_all(b"0123456789").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::BrokenPipe);
        assert_eq!(w.inner, b"01234");
        // And it keeps failing: the connection is gone.
        assert!(w.write(b"more").is_err());
    }
}
