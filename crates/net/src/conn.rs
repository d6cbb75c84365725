//! Per-connection state for the readiness event loop.
//!
//! The split is deliberate: [`FrameMachine`] is the *pure* framing state
//! machine — bytes in, frames out, responses queued, partial writes
//! continued — with no socket and no clock, so every transition is unit
//! testable. [`Connection`] binds one machine to one non-blocking
//! `TcpStream` plus the two deadlines ([`Expiry::Idle`],
//! [`Expiry::PartialFrame`]) the deadline wheel enforces.
//!
//! A machine moves bytes through four stages:
//!
//! ```text
//!   socket ──read──▶ read_buf ──frame_len──▶ frame ──dispatch_at──▶
//!      response ──queue_response──▶ write_buf ──write──▶ socket
//! ```
//!
//! with `write_buf` surviving partial writes: [`FrameMachine::pending_write`]
//! hands out the unsent tail, [`FrameMachine::consume_written`] advances it.

use oma_drm::roap::RoapError;
use oma_drm::wire::RoapPdu;
use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// The socket-free framing core: buffers inbound bytes, slices them into
/// envelope frames, and carries outbound responses across partial writes.
#[derive(Debug, Default)]
pub struct FrameMachine {
    read_buf: Vec<u8>,
    write_buf: Vec<u8>,
    written: usize,
}

impl FrameMachine {
    /// An empty machine.
    pub fn new() -> FrameMachine {
        FrameMachine::default()
    }

    /// Appends bytes read off the socket to the read buffer.
    pub fn ingest(&mut self, bytes: &[u8]) {
        self.read_buf.extend_from_slice(bytes);
    }

    /// Slices the next complete frame out of the read buffer.
    ///
    /// `Ok(None)` means the buffered bytes are a valid-so-far prefix —
    /// wait for more. Call in a loop: several frames may have arrived in
    /// one segment.
    ///
    /// # Errors
    ///
    /// The buffered bytes can never become a frame; framing is lost for
    /// good and the connection should answer a `Status` and close.
    pub fn next_frame(&mut self) -> Result<Option<Vec<u8>>, RoapError> {
        match RoapPdu::frame_len(&self.read_buf)? {
            Some(total) if self.read_buf.len() >= total => {
                let frame = self.read_buf[..total].to_vec();
                self.read_buf.drain(..total);
                Ok(Some(frame))
            }
            _ => Ok(None),
        }
    }

    /// Queues a response frame behind whatever is still unsent.
    pub fn queue_response(&mut self, frame: &[u8]) {
        if self.written == self.write_buf.len() {
            self.write_buf.clear();
            self.written = 0;
        }
        self.write_buf.extend_from_slice(frame);
    }

    /// The outbound bytes not yet accepted by the socket.
    pub fn pending_write(&self) -> &[u8] {
        &self.write_buf[self.written..]
    }

    /// Records that the socket accepted `n` bytes of
    /// [`pending_write`](FrameMachine::pending_write).
    pub fn consume_written(&mut self, n: usize) {
        self.written += n;
        debug_assert!(self.written <= self.write_buf.len());
        if self.written == self.write_buf.len() {
            self.write_buf.clear();
            self.written = 0;
        }
    }

    /// True while unsent response bytes remain — the connection needs
    /// write-readiness.
    pub fn wants_write(&self) -> bool {
        self.written < self.write_buf.len()
    }

    /// True while the read buffer holds the beginning of an incomplete
    /// frame — the peer owes us bytes, on a deadline.
    pub fn has_partial_frame(&self) -> bool {
        !self.read_buf.is_empty()
    }

    /// Bytes currently buffered inbound (a partial frame's length).
    pub fn buffered(&self) -> usize {
        self.read_buf.len()
    }
}

/// Why a connection was reaped by the deadline wheel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Expiry {
    /// No byte arrived for the whole idle timeout.
    Idle,
    /// A frame was started but not completed within the frame timeout
    /// (the slowloris case).
    PartialFrame,
}

/// One accepted, non-blocking connection inside the event loop: socket +
/// [`FrameMachine`] + deadline bookkeeping.
#[derive(Debug)]
pub struct Connection {
    stream: TcpStream,
    machine: FrameMachine,
    last_byte_at: Instant,
    frame_started_at: Option<Instant>,
    closing: bool,
}

impl Connection {
    /// Adopts an accepted stream: switches it to non-blocking and disables
    /// Nagle (small latency-bound frames).
    ///
    /// # Errors
    ///
    /// Setting either socket option failed.
    pub fn new(stream: TcpStream) -> io::Result<Connection> {
        stream.set_nonblocking(true)?;
        stream.set_nodelay(true)?;
        Ok(Connection {
            stream,
            machine: FrameMachine::new(),
            last_byte_at: Instant::now(),
            frame_started_at: None,
            closing: false,
        })
    }

    /// The underlying socket (for poller registration).
    pub fn stream(&self) -> &TcpStream {
        &self.stream
    }

    /// The connection's framing state.
    pub fn machine(&mut self) -> &mut FrameMachine {
        &mut self.machine
    }

    /// Reads at most one `scratch`-full of the readable socket into the
    /// machine. `Ok(true)` means the peer is still there; `Ok(false)` means
    /// it sent EOF (answer what's buffered, flush, then close).
    ///
    /// One read per readiness event bounds the work — and the responses —
    /// a single event can produce, however fast the peer writes; the
    /// level-triggered poller reports the socket again for the rest.
    ///
    /// # Errors
    ///
    /// A hard socket error; the connection is dead.
    pub fn fill(&mut self, scratch: &mut [u8]) -> io::Result<bool> {
        loop {
            match (&self.stream).read(scratch) {
                Ok(0) => return Ok(false),
                Ok(n) => {
                    self.machine.ingest(&scratch[..n]);
                    self.last_byte_at = Instant::now();
                    return Ok(true);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(true),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }

    /// Writes as much queued response as the socket accepts. `Ok(true)`
    /// when everything went out; `Ok(false)` when the socket filled up
    /// mid-frame (re-arm for write-readiness and continue later).
    ///
    /// # Errors
    ///
    /// A hard socket error; the connection is dead.
    pub fn flush(&mut self) -> io::Result<bool> {
        while self.machine.wants_write() {
            match (&self.stream).write(self.machine.pending_write()) {
                Ok(0) => {
                    return Err(io::Error::new(
                        io::ErrorKind::WriteZero,
                        "socket accepted zero bytes",
                    ))
                }
                Ok(n) => self.machine.consume_written(n),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(false),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        Ok(true)
    }

    /// Re-anchors the frame-completion deadline after a batch of frames
    /// was processed: a leftover partial frame starts (or keeps) its
    /// clock, an empty buffer clears it. Call after draining
    /// [`FrameMachine::next_frame`].
    ///
    /// Returns `true` when this call *started* the clock: the connection
    /// now has a deadline earlier than the one it was last filed under, so
    /// the caller must file it in the deadline wheel again at
    /// [`next_due`](Connection::next_due).
    pub fn note_frame_progress(&mut self) -> bool {
        if self.machine.has_partial_frame() {
            if self.frame_started_at.is_none() {
                self.frame_started_at = Some(Instant::now());
                return true;
            }
        } else {
            self.frame_started_at = None;
        }
        false
    }

    /// Checks both reaping deadlines at `now`. The frame deadline is
    /// checked first: a slowloris peer is never saved by its own trickle
    /// resetting the idle clock.
    pub fn expired(&self, now: Instant, idle: Duration, frame: Duration) -> Option<Expiry> {
        if let Some(started) = self.frame_started_at {
            if now.saturating_duration_since(started) >= frame {
                return Some(Expiry::PartialFrame);
            }
        }
        if now.saturating_duration_since(self.last_byte_at) >= idle {
            return Some(Expiry::Idle);
        }
        None
    }

    /// The earliest future instant at which [`expired`](Connection::expired)
    /// could first return `Some` — where the deadline wheel should
    /// re-examine this connection.
    pub fn next_due(&self, idle: Duration, frame: Duration) -> Instant {
        let idle_due = self.last_byte_at + idle;
        match self.frame_started_at {
            Some(started) => idle_due.min(started + frame),
            None => idle_due,
        }
    }

    /// Marks the connection close-after-flush: the queued bytes (typically
    /// a `Status` explaining why) still go out, then the loop closes it.
    pub fn set_closing(&mut self) {
        self.closing = true;
    }

    /// True once [`set_closing`](Connection::set_closing) was called.
    pub fn is_closing(&self) -> bool {
        self.closing
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oma_drm::roap::DeviceHello;

    fn hello_frame(id: &str) -> Vec<u8> {
        RoapPdu::DeviceHello(DeviceHello::new(id)).encode()
    }

    #[test]
    fn byte_at_a_time_reassembly() {
        let frame = hello_frame("dev");
        let mut m = FrameMachine::new();
        for byte in frame.iter() {
            assert_eq!(m.next_frame().unwrap(), None, "complete only at the end");
            m.ingest(&[*byte]);
        }
        assert_eq!(m.next_frame().unwrap(), Some(frame));
        assert!(!m.has_partial_frame());
        assert_eq!(m.next_frame().unwrap(), None);
    }

    #[test]
    fn coalesced_frames_come_out_one_by_one() {
        let a = hello_frame("dev-a");
        let b = hello_frame("dev-b");
        let mut m = FrameMachine::new();
        let mut wire = a.clone();
        wire.extend_from_slice(&b);
        wire.extend_from_slice(&a[..5]); // trailing partial
        m.ingest(&wire);
        assert_eq!(m.next_frame().unwrap(), Some(a));
        assert_eq!(m.next_frame().unwrap(), Some(b));
        assert_eq!(m.next_frame().unwrap(), None);
        assert!(m.has_partial_frame());
        assert_eq!(m.buffered(), 5);
    }

    #[test]
    fn garbage_is_a_terminal_framing_error() {
        let mut m = FrameMachine::new();
        m.ingest(b"GET / HTTP/1.1\r\n\r\n");
        assert!(m.next_frame().is_err());
    }

    #[test]
    fn partial_write_continuation() {
        let mut m = FrameMachine::new();
        m.queue_response(b"abcdef");
        assert!(m.wants_write());
        assert_eq!(m.pending_write(), b"abcdef");
        m.consume_written(2);
        assert_eq!(m.pending_write(), b"cdef");
        // A second response queues behind the unsent tail.
        m.queue_response(b"XY");
        assert_eq!(m.pending_write(), b"cdefXY");
        m.consume_written(6);
        assert!(!m.wants_write());
        assert_eq!(m.pending_write(), b"");
        // Fully drained buffers reset, not grow.
        m.queue_response(b"Z");
        assert_eq!(m.pending_write(), b"Z");
    }

    #[test]
    fn expiry_prefers_the_frame_deadline() {
        let listener = std::net::TcpListener::bind((std::net::Ipv4Addr::LOCALHOST, 0)).unwrap();
        let stream = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let mut conn = Connection::new(stream).unwrap();
        let idle = Duration::from_secs(30);
        let frame = Duration::from_millis(10);
        assert_eq!(conn.expired(Instant::now(), idle, frame), None);
        conn.machine().ingest(b"ROAP"); // a frame has started
        assert!(conn.note_frame_progress(), "stopped -> running edge");
        assert!(!conn.note_frame_progress(), "a running clock is kept");
        let later = Instant::now() + Duration::from_millis(20);
        assert_eq!(conn.expired(later, idle, frame), Some(Expiry::PartialFrame));
        // next_due is the frame deadline, well before the idle one.
        assert!(conn.next_due(idle, frame) < Instant::now() + idle);
    }
}
