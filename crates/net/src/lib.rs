//! ROAP over real sockets.
//!
//! Everything below the wire layer is transport-agnostic: a [`RoapPdu`]
//! frame is a self-delimiting byte string, [`RiService::dispatch`] turns
//! one request frame into one response frame, and
//! [`RoapClient`](oma_drm::client::RoapClient) only needs a
//! [`RoapTransport`] to speak the whole protocol. This crate supplies the
//! missing rung: the frames actually cross a TCP connection.
//!
//! * [`TcpTransport`] — the client end: one connection, one frame out, one
//!   frame back per [`RoapTransport::roundtrip`], with partial reads
//!   reassembled via the envelope's length header
//!   ([`RoapPdu::frame_len`]).
//! * [`RoapTcpServer`] — the service end: a listener plus a **bounded**
//!   worker pool; each worker serves one connection at a time, feeding every
//!   received frame through [`RiService::dispatch_at`] so certificate
//!   validity is judged by the *server's* clock, never the peer's
//!   (see [`ServerConfig::clock`]).
//! * [`serve_connection`] — the per-connection loop itself, usable without
//!   the server when a test or example owns its own accept loop. Frames may
//!   arrive split across TCP segments or coalesced several-per-segment; the
//!   loop reassembles both cases, and hangs up on peers that stop
//!   delivering bytes for [`ServerConfig::idle_timeout`].
//!
//! The crate is std-only by design (the vendored-deps rule): no async
//! runtime, no socket abstraction — `std::net` sockets and plain threads,
//! which is also the honest model of the 2005-era license servers the
//! paper's Rights Issuer would have talked to. Two server cores share the
//! same [`ServerConfig`]/serve surface:
//!
//! * [`RoapTcpServer`] — thread-per-connection: an accept thread plus a
//!   bounded worker pool; concurrency is worker-count-bound.
//! * [`RoapEventServer`] — the readiness [`event_loop`]: one thread, an
//!   epoll-backed [`poll::Poller`] driving non-blocking sockets through
//!   per-connection [`conn::FrameMachine`]s, so tens of thousands of
//!   mostly-idle handsets park on one core.
//!
//! Both expose the same [`ServerMetrics`] connection counters
//! (accepted/active/reaped/shed/queue depth) and both shut down
//! gracefully: stop accepting, answer every frame already received on
//! in-flight connections, then join. Peer disconnects surface as clean
//! [`DrmError::Transport`] returns from the connection loop — a dead
//! connection never wedges a worker.

// `deny`, not `forbid`: the epoll poller's FFI shim in [`poll`] carries the
// crate's only `#[allow(unsafe_code)]`, and `forbid` cannot be overridden
// even there.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod conn;
pub mod event_loop;
pub mod poll;

pub use event_loop::RoapEventServer;

use oma_drm::client::RoapTransport;
use oma_drm::journal::RiJournal;
use oma_drm::service::RiService;
use oma_drm::wire::{RoapPdu, RoapStatus};
use oma_drm::DrmError;
pub use oma_obs::ObsConfig;

use oma_obs::{Counter as ObsCounter, Gauge as ObsGauge, Histogram, Obs, Registry, Span};
use oma_pki::Timestamp;
use std::io::{self, Read, Write};
use std::net::{Ipv4Addr, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// How often a blocked server thread re-checks the shutdown flag: the accept
/// loop polls its non-blocking listener at this interval, and every
/// connection's read timeout is set to it. Bounds shutdown latency without
/// busy-waiting.
const POLL_INTERVAL: Duration = Duration::from_millis(25);

/// Default [`ServerConfig::idle_timeout`], and the patience of a bare
/// [`serve_connection`]: generous next to any honest client's think time
/// (even full-size RSA signing is milliseconds), small enough that an
/// abandoned connection frees its worker quickly.
pub const DEFAULT_IDLE_TIMEOUT: Duration = Duration::from_secs(30);

/// Default [`ServerConfig::frame_timeout`]: how long a peer may take to
/// finish delivering a frame it has started. Any honest client writes a
/// whole frame in one burst, so seconds of slack is generous — while a
/// slowloris peer trickling one byte per `idle_timeout - ε` is reaped here
/// instead of holding a worker (or an event-loop connection slot) forever.
pub const DEFAULT_FRAME_TIMEOUT: Duration = Duration::from_secs(10);

/// Default [`ServerConfig::queue_depth`] of the accept→worker hand-off
/// queue: deep enough that a benign burst rides it out, shallow enough
/// that a connect flood is shed with [`RoapStatus::Busy`] instead of
/// accumulating unserved sockets without bound.
pub const DEFAULT_QUEUE_DEPTH: usize = 64;

/// Default [`ServerConfig::max_connections`] for the event-loop backend.
pub const DEFAULT_MAX_CONNECTIONS: usize = 16_384;

/// Default client-side [`TcpTransport`] deadline: every
/// [`roundtrip`](RoapTransport::roundtrip) must connect/send/receive within
/// this budget or fail with [`DrmError::Transport`], so a wedged server can
/// never hang a client (or the fleet harness) forever.
pub const DEFAULT_CLIENT_DEADLINE: Duration = Duration::from_secs(30);

/// Connection-level counters shared by both server backends, readable at
/// any time via [`ServerMetrics::snapshot`]. Gauges (`active`,
/// `queue_depth`) track the current value and remember their peak;
/// everything else is a monotonic counter.
///
/// Since the observability layer landed, the counters live in an
/// [`oma_obs::Registry`] — this struct is a set of pre-resolved handles,
/// and [`snapshot`](ServerMetrics::snapshot) / the snapshot's `Display`
/// are thin views over the registry values. A server built with
/// [`ServerConfig::obs`] enabled registers into the shared surface (so
/// `net_*`/`repl_*` appear in the text exposition); otherwise the
/// handles live in a private registry and behave exactly as the old
/// bare atomics did.
pub struct ServerMetrics {
    accepted: Arc<ObsCounter>,
    served: Arc<ObsCounter>,
    active: Arc<ObsGauge>,
    peak_active: Arc<ObsGauge>,
    reaped_idle: Arc<ObsCounter>,
    reaped_frame: Arc<ObsCounter>,
    shed: Arc<ObsCounter>,
    queue_depth: Arc<ObsGauge>,
    peak_queue_depth: Arc<ObsGauge>,
    records_shipped: Arc<ObsCounter>,
    records_acked: Arc<ObsCounter>,
    follower_lag: Arc<ObsGauge>,
    epoch: Arc<ObsGauge>,
}

impl Default for ServerMetrics {
    /// Metrics backed by a private, throwaway registry — the
    /// no-observability path, identical in behaviour to the pre-registry
    /// bare atomics.
    fn default() -> Self {
        Self::in_registry(&Registry::new())
    }
}

impl std::fmt::Debug for ServerMetrics {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServerMetrics")
            .field("snapshot", &self.snapshot())
            .finish()
    }
}

impl ServerMetrics {
    /// Metrics registered in `registry` as the single source of truth
    /// (`net_*` for connection counters, `repl_*` for replication).
    /// Registering two servers into one registry would alias their
    /// counters — give each server its own [`Obs`] surface.
    pub fn in_registry(registry: &Registry) -> Self {
        ServerMetrics {
            accepted: registry.counter("net_accepted_total"),
            served: registry.counter("net_served_total"),
            active: registry.gauge("net_active"),
            peak_active: registry.gauge("net_active_peak"),
            reaped_idle: registry.counter("net_reaped_idle_total"),
            reaped_frame: registry.counter("net_reaped_frame_total"),
            shed: registry.counter("net_shed_total"),
            queue_depth: registry.gauge("net_queue_depth"),
            peak_queue_depth: registry.gauge("net_queue_depth_peak"),
            records_shipped: registry.counter("repl_records_shipped_total"),
            records_acked: registry.counter("repl_records_acked_total"),
            follower_lag: registry.gauge("repl_follower_lag"),
            epoch: registry.gauge("repl_epoch"),
        }
    }

    pub(crate) fn on_accept(&self) {
        self.accepted.inc();
        let active = self.active.add(1);
        self.peak_active.set_max(active);
    }

    pub(crate) fn on_served(&self) {
        self.served.inc();
        self.active.sub(1);
    }

    pub(crate) fn on_shed(&self) {
        self.shed.inc();
        self.active.sub(1);
    }

    pub(crate) fn on_reaped_idle(&self) {
        self.reaped_idle.inc();
    }

    pub(crate) fn on_reaped_frame(&self) {
        self.reaped_frame.inc();
    }

    pub(crate) fn on_queued(&self) {
        let depth = self.queue_depth.add(1);
        self.peak_queue_depth.set_max(depth);
    }

    pub(crate) fn on_dequeued(&self) {
        self.queue_depth.sub(1);
    }

    /// Number of conversations that have finished (served to disconnect,
    /// protocol failure, reaped, or drained at shutdown).
    pub fn served(&self) -> u64 {
        self.served.get()
    }

    /// Counts WAL records shipped to a replication follower. Public because
    /// the replication machinery lives outside this crate (`oma-cluster`)
    /// but reports through the same per-server metrics surface.
    pub fn on_records_shipped(&self, records: u64) {
        self.records_shipped.add(records);
    }

    /// Counts WAL records a replication follower acknowledged.
    pub fn on_records_acked(&self, records: u64) {
        self.records_acked.add(records);
    }

    /// Publishes the current replication lag gauge: how many durable
    /// records the slowest follower has not acknowledged yet. (The
    /// point-in-time gauge survives for this `Display` view; the
    /// *distribution* of replication latency lives in the
    /// `repl_ship_ack_nanos` histogram `oma-cluster` records.)
    pub fn set_follower_lag(&self, records: u64) {
        self.follower_lag.set(records);
    }

    /// Publishes the replication epoch this node currently serves under
    /// (bumped by every failover; see `oma-cluster`).
    pub fn set_epoch(&self, epoch: u64) {
        self.epoch.set(epoch);
    }

    /// A consistent-enough point-in-time copy of every counter.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            accepted: self.accepted.get(),
            served: self.served.get(),
            active: self.active.get(),
            peak_active: self.peak_active.get(),
            reaped_idle: self.reaped_idle.get(),
            reaped_frame: self.reaped_frame.get(),
            shed: self.shed.get(),
            queue_depth: self.queue_depth.get(),
            peak_queue_depth: self.peak_queue_depth.get(),
            records_shipped: self.records_shipped.get(),
            records_acked: self.records_acked.get(),
            follower_lag: self.follower_lag.get(),
            epoch: self.epoch.get(),
        }
    }
}

/// Point-in-time copy of a server's [`ServerMetrics`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MetricsSnapshot {
    /// Connections accepted off the listener (including ones later shed).
    pub accepted: u64,
    /// Conversations finished, for any reason.
    pub served: u64,
    /// Connections currently open on the server.
    pub active: u64,
    /// Highest simultaneous `active` observed.
    pub peak_active: u64,
    /// Connections reaped for byte-level idleness
    /// ([`ServerConfig::idle_timeout`]).
    pub reaped_idle: u64,
    /// Connections reaped for stalling mid-frame
    /// ([`ServerConfig::frame_timeout`]).
    pub reaped_frame: u64,
    /// Connections shed with [`RoapStatus::Busy`] because the hand-off
    /// queue (thread backend) or connection table (event backend) was full.
    pub shed: u64,
    /// Connections currently parked in the accept→worker hand-off queue
    /// (always 0 on the event-loop backend, which has no queue).
    pub queue_depth: u64,
    /// Highest simultaneous `queue_depth` observed.
    pub peak_queue_depth: u64,
    /// WAL records shipped to replication followers
    /// ([`ServerMetrics::on_records_shipped`]; 0 on an unreplicated node).
    pub records_shipped: u64,
    /// WAL records replication followers acknowledged
    /// ([`ServerMetrics::on_records_acked`]).
    pub records_acked: u64,
    /// Durable records the slowest follower has not acknowledged yet
    /// ([`ServerMetrics::set_follower_lag`]).
    pub follower_lag: u64,
    /// Replication epoch this node serves under; bumped by every failover
    /// ([`ServerMetrics::set_epoch`]; 0 on an unreplicated node).
    pub epoch: u64,
}

impl std::fmt::Display for MetricsSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "accepted={} served={} active={} (peak {}) reaped_idle={} \
             reaped_frame={} shed={} queue_depth={} (peak {}) \
             repl_shipped={} repl_acked={} repl_lag={} epoch={}",
            self.accepted,
            self.served,
            self.active,
            self.peak_active,
            self.reaped_idle,
            self.reaped_frame,
            self.shed,
            self.queue_depth,
            self.peak_queue_depth,
            self.records_shipped,
            self.records_acked,
            self.follower_lag,
            self.epoch,
        )
    }
}

/// Pre-resolved observability handles for a server core: the per-frame
/// latency histograms plus the span ring. Created once at bind time when
/// [`ServerConfig::obs`] is on; every hot-path site then costs one
/// `Option` check and, when on, lock-free atomic records.
pub(crate) struct NetObs {
    obs: Arc<Obs>,
    frame_nanos: Arc<Histogram>,
    dispatch_nanos: Arc<Histogram>,
    write_nanos: Arc<Histogram>,
    queue_wait_nanos: Arc<Histogram>,
}

impl NetObs {
    pub(crate) fn new(obs: &Arc<Obs>) -> NetObs {
        let registry = obs.registry();
        NetObs {
            obs: Arc::clone(obs),
            frame_nanos: registry.histogram("net_frame_nanos"),
            dispatch_nanos: registry.histogram("net_dispatch_nanos"),
            write_nanos: registry.histogram("net_write_nanos"),
            queue_wait_nanos: registry.histogram("net_queue_wait_nanos"),
        }
    }

    /// Records one connection's accept→worker hand-off wait.
    pub(crate) fn record_queue_wait(&self, wait: Duration) {
        self.queue_wait_nanos.record_duration(wait);
    }

    /// Records one served frame: the latency histograms plus its span.
    pub(crate) fn record_frame(&self, dispatch: Duration, write: Duration, mut span: Span) {
        let dispatch_nanos = duration_nanos(dispatch);
        let write_nanos = duration_nanos(write);
        self.dispatch_nanos.record(dispatch_nanos);
        self.write_nanos.record(write_nanos);
        self.frame_nanos
            .record(dispatch_nanos.saturating_add(write_nanos));
        span.dispatch_nanos = dispatch_nanos;
        span.write_nanos = write_nanos;
        self.obs.spans().record(span);
    }
}

/// A [`Duration`] as saturating nanoseconds.
pub(crate) fn duration_nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// Builds the identity half of a frame's [`Span`] — kind, session id and
/// (when the PDU carries one) device id — from the raw frame bytes. Only
/// called when observability is on: it decodes the frame a second time,
/// which is noise next to the crypto a dispatch performs, and keeps the
/// off path entirely untouched.
pub(crate) fn span_for_frame(frame: &[u8], service: &RiService) -> (Span, u64) {
    let span = match RoapPdu::decode(frame) {
        Ok(pdu) => {
            let mut span = Span::new(pdu.name());
            span.session_id = pdu.session_id();
            span.device_id = pdu.device_id().unwrap_or("").to_string();
            span
        }
        Err(_) => Span::new("Invalid"),
    };
    (span, service.charged_cycles())
}

/// Maps an I/O failure in `context` onto the transport error peers report.
fn transport_err(context: &str, e: io::Error) -> DrmError {
    DrmError::Transport(format!("{context}: {e}"))
}

/// Reads exactly one length-framed ROAP PDU from `reader`, reassembling
/// partial reads: first the fixed envelope header, whose length field names
/// the frame's total size ([`RoapPdu::frame_len`]), then the remainder of
/// the body — however many TCP segments either part was split across.
///
/// Returns the raw frame bytes (header included), ready for
/// [`RoapPdu::decode`] or [`RiService::dispatch`].
///
/// # Errors
///
/// [`DrmError::Transport`] when the peer disconnects (at a frame boundary
/// or mid-frame) or the read fails; [`DrmError::Roap`] when the header is
/// not a valid ROAP envelope — after which the stream cannot be
/// resynchronised and should be closed.
pub fn read_frame<R: Read>(reader: &mut R) -> Result<Vec<u8>, DrmError> {
    let mut frame = vec![0u8; oma_drm::wire::HEADER_LEN];
    reader
        .read_exact(&mut frame)
        .map_err(|e| transport_err("read frame header", e))?;
    let total = RoapPdu::frame_len(&frame)
        .map_err(DrmError::Roap)?
        .expect("a complete header always yields a frame length");
    frame.resize(total, 0);
    reader
        .read_exact(&mut frame[oma_drm::wire::HEADER_LEN..])
        .map_err(|e| transport_err("read frame body", e))?;
    Ok(frame)
}

/// The client end of a ROAP-over-TCP connection: a [`RoapTransport`] whose
/// [`roundtrip`](RoapTransport::roundtrip) writes the request frame to the
/// socket and reassembles the single response frame, handling responses
/// split across TCP segments.
///
/// One transport owns one connection. Dropping it closes the connection,
/// which the server side reports as a clean peer disconnect.
///
/// # Example
///
/// Once a server is up, connecting and registering is three lines:
///
/// ```
/// # use oma_drm::client::RoapClient;
/// # use oma_drm::{DrmAgent, RiService};
/// # use oma_net::{RoapTcpServer, ServerConfig, TcpTransport};
/// # use oma_pki::{CertificationAuthority, Timestamp};
/// # use rand::SeedableRng;
/// # use std::sync::Arc;
/// # fn main() -> Result<(), oma_drm::DrmError> {
/// # let mut rng = rand::rngs::StdRng::seed_from_u64(7);
/// # let mut ca = CertificationAuthority::new("cmla", 384, &mut rng);
/// # let service = Arc::new(RiService::new("ri.example.com", 384, &mut ca, &mut rng));
/// # let mut agent = DrmAgent::new("phone-001", 384, &mut ca, &mut rng);
/// # let now = Timestamp::new(1_000);
/// # let server = RoapTcpServer::bind(
/// #     service,
/// #     ServerConfig { clock: Some(now), ..ServerConfig::default() },
/// # )?;
/// let client = RoapClient::new(TcpTransport::connect(server.local_addr())?);
/// agent.register_via(&client, now)?;
/// assert!(agent.is_registered_with("ri.example.com"));
/// # server.shutdown();
/// # Ok(()) }
/// ```
#[derive(Debug)]
pub struct TcpTransport {
    stream: TcpStream,
    deadline: Option<Duration>,
}

impl TcpTransport {
    /// Connects to a ROAP server, typically at
    /// [`RoapTcpServer::local_addr`]. Nagle's algorithm is disabled: frames
    /// are small and latency-bound, the workload TCP_NODELAY exists for.
    ///
    /// The transport carries [`DEFAULT_CLIENT_DEADLINE`]: the connect and
    /// every later roundtrip must complete within that budget. Use
    /// [`TcpTransport::connect_with_deadline`] to tune or disable it.
    ///
    /// # Errors
    ///
    /// [`DrmError::Transport`] when the connection cannot be established
    /// within the deadline.
    pub fn connect<A: ToSocketAddrs>(addr: A) -> Result<Self, DrmError> {
        Self::connect_with_deadline(addr, Some(DEFAULT_CLIENT_DEADLINE))
    }

    /// [`TcpTransport::connect`] with an explicit per-roundtrip deadline.
    /// `None` restores the pre-deadline behaviour — block indefinitely —
    /// which is only safe against a cooperating in-process server.
    ///
    /// # Errors
    ///
    /// [`DrmError::Transport`] when no resolved address accepts the
    /// connection within the deadline.
    pub fn connect_with_deadline<A: ToSocketAddrs>(
        addr: A,
        deadline: Option<Duration>,
    ) -> Result<Self, DrmError> {
        let addrs = addr
            .to_socket_addrs()
            .map_err(|e| transport_err("resolve", e))?;
        let mut last_err = DrmError::Transport("connect: no addresses resolved".into());
        for candidate in addrs {
            let attempt = match deadline {
                // `connect_timeout` rejects a zero duration; clamp rather
                // than error so a `Duration::ZERO` deadline reads as
                // "already expired", not a usage bug.
                Some(d) => TcpStream::connect_timeout(&candidate, d.max(Duration::from_millis(1))),
                None => TcpStream::connect(candidate),
            };
            match attempt {
                Ok(stream) => {
                    stream
                        .set_nodelay(true)
                        .map_err(|e| transport_err("set_nodelay", e))?;
                    return Ok(TcpTransport { stream, deadline });
                }
                Err(e) => last_err = transport_err("connect", e),
            }
        }
        Err(last_err)
    }

    /// Wraps an already-established connection (e.g. accepted by a custom
    /// listener) without touching its socket options. No deadline is
    /// applied; add one with [`TcpTransport::set_deadline`].
    pub fn from_stream(stream: TcpStream) -> Self {
        TcpTransport {
            stream,
            deadline: None,
        }
    }

    /// The per-roundtrip deadline currently in force, if any.
    pub fn deadline(&self) -> Option<Duration> {
        self.deadline
    }

    /// Changes the per-roundtrip deadline. `None` blocks indefinitely.
    pub fn set_deadline(&mut self, deadline: Option<Duration>) {
        self.deadline = deadline;
    }

    /// The local address of the underlying connection.
    ///
    /// # Errors
    ///
    /// [`DrmError::Transport`] when the socket cannot report it.
    pub fn local_addr(&self) -> Result<SocketAddr, DrmError> {
        self.stream
            .local_addr()
            .map_err(|e| transport_err("local_addr", e))
    }
}

/// Reads exactly `buf.len()` bytes from `&stream`, giving up with a
/// [`DrmError::Transport`] once `due` passes — the piece `read_frame`
/// cannot provide, because a stalled server otherwise blocks `read_exact`
/// forever.
fn read_exact_deadline(
    stream: &TcpStream,
    buf: &mut [u8],
    due: Option<Instant>,
    context: &str,
) -> Result<(), DrmError> {
    let mut filled = 0;
    while filled < buf.len() {
        if let Some(due) = due {
            let remaining = due.saturating_duration_since(Instant::now());
            if remaining.is_zero() {
                return Err(DrmError::Transport(format!(
                    "{context}: deadline exceeded waiting for the server"
                )));
            }
            // A zero read timeout is rejected by std; 1ms under-sleeps the
            // deadline by at most that much.
            stream
                .set_read_timeout(Some(remaining.max(Duration::from_millis(1))))
                .map_err(|e| transport_err("set_read_timeout", e))?;
        }
        match (&mut &*stream).read(&mut buf[filled..]) {
            Ok(0) => return Err(DrmError::Transport(format!("{context}: peer disconnected"))),
            Ok(n) => filled += n,
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock
                    || e.kind() == io::ErrorKind::TimedOut
                    || e.kind() == io::ErrorKind::Interrupted =>
            {
                // Loop re-checks the deadline; without one this was a bare
                // interrupt and the read simply retries.
            }
            Err(e) => return Err(transport_err(context, e)),
        }
    }
    Ok(())
}

/// [`read_frame`] against a deadline: reassembles exactly one frame from
/// `&stream` or fails with [`DrmError::Transport`] once `due` passes.
fn read_frame_deadline(stream: &TcpStream, due: Option<Instant>) -> Result<Vec<u8>, DrmError> {
    let mut frame = vec![0u8; oma_drm::wire::HEADER_LEN];
    read_exact_deadline(stream, &mut frame, due, "read frame header")?;
    let total = RoapPdu::frame_len(&frame)
        .map_err(DrmError::Roap)?
        .expect("a complete header always yields a frame length");
    frame.resize(total, 0);
    read_exact_deadline(
        stream,
        &mut frame[oma_drm::wire::HEADER_LEN..],
        due,
        "read frame body",
    )?;
    Ok(frame)
}

impl RoapTransport for TcpTransport {
    fn roundtrip(&self, frame: &[u8]) -> Result<Vec<u8>, DrmError> {
        // `Read`/`Write` are implemented on `&TcpStream`, so a shared
        // transport reference suffices — the protocol is strictly
        // request/response on one connection, never pipelined.
        let due = self.deadline.map(|d| Instant::now() + d);
        self.stream
            .set_write_timeout(self.deadline.map(|d| d.max(Duration::from_millis(1))))
            .map_err(|e| transport_err("set_write_timeout", e))?;
        (&self.stream)
            .write_all(frame)
            .map_err(|e| transport_err("send frame", e))?;
        read_frame_deadline(&self.stream, due)
    }
}

impl RoapTransport for &TcpTransport {
    fn roundtrip(&self, frame: &[u8]) -> Result<Vec<u8>, DrmError> {
        (**self).roundtrip(frame)
    }
}

/// Tuning knobs of a [`RoapTcpServer`].
#[derive(Clone)]
pub struct ServerConfig {
    /// Size of the bounded worker pool. Each worker serves one connection at
    /// a time; further accepted connections wait in the hand-off queue until
    /// a worker frees up, so the pool bounds concurrency, not the number of
    /// clients.
    pub workers: usize,
    /// The server-pinned clock handed to [`RiService::dispatch_at`] for
    /// every frame. `None` falls back to [`RiService::dispatch`], which
    /// trusts each request's own `request_time` — acceptable between
    /// cooperating test processes, not on a hostile wire (a peer could
    /// back-date itself into an expired certificate's validity window).
    pub clock: Option<Timestamp>,
    /// How long a connection may sit without delivering a single byte
    /// before the server hangs up on it. This is what keeps a half-open
    /// peer (vanished without a FIN) or a connect-and-say-nothing client
    /// from occupying a bounded-pool worker forever.
    pub idle_timeout: Duration,
    /// How long a peer may take to complete a frame it has started
    /// delivering. Byte-level idleness alone is not enough: a slowloris
    /// peer trickling one byte per `idle_timeout - ε` never goes idle yet
    /// never completes a frame — this deadline reaps it.
    pub frame_timeout: Duration,
    /// Bound of the accept→worker hand-off queue
    /// ([`RoapTcpServer`] only). When the queue is full, further accepted
    /// connections are shed with a [`RoapStatus::Busy`] reply instead of
    /// accumulating without backpressure.
    pub queue_depth: usize,
    /// Most connections an [`event_loop::RoapEventServer`] keeps open at
    /// once; beyond it, fresh connections are shed with
    /// [`RoapStatus::Busy`]. The thread backend's concurrency is already
    /// bounded by `workers + queue_depth`, so it ignores this knob.
    pub max_connections: usize,
    /// Optional durable store. When set, [`RoapTcpServer::bind`] attaches
    /// it as the service's journal (every mutation is logged before its
    /// response leaves) and writes a boot snapshot — so even a fresh store
    /// holds the service identity and a hard kill loses nothing that was
    /// journaled. Graceful shutdown flushes the log and snapshots again
    /// once the last in-flight conversation has drained, leaving a
    /// compact, replay-free store behind.
    pub store: Option<Arc<dyn RiJournal>>,
    /// Observability: [`ObsConfig::Off`] (the default) costs one branch
    /// per instrumentation site; [`ObsConfig::On`] records per-frame
    /// latency histograms (`net_frame_nanos`, `net_dispatch_nanos`,
    /// `net_write_nanos`, `net_queue_wait_nanos`), publishes the
    /// [`ServerMetrics`] counters into the surface's registry, and
    /// deposits one [`Span`] per served frame in the span ring.
    pub obs: ObsConfig,
}

impl std::fmt::Debug for ServerConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServerConfig")
            .field("workers", &self.workers)
            .field("clock", &self.clock)
            .field("idle_timeout", &self.idle_timeout)
            .field("frame_timeout", &self.frame_timeout)
            .field("queue_depth", &self.queue_depth)
            .field("max_connections", &self.max_connections)
            .field("durable", &self.store.is_some())
            .field("obs", &self.obs.is_on())
            .finish()
    }
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: 4,
            clock: None,
            idle_timeout: DEFAULT_IDLE_TIMEOUT,
            frame_timeout: DEFAULT_FRAME_TIMEOUT,
            queue_depth: DEFAULT_QUEUE_DEPTH,
            max_connections: DEFAULT_MAX_CONNECTIONS,
            store: None,
            obs: ObsConfig::Off,
        }
    }
}

impl ServerConfig {
    /// A default config journaling through `store` — the one-liner for
    /// bringing up a durable server.
    pub fn durable(store: Arc<dyn RiJournal>) -> Self {
        ServerConfig {
            store: Some(store),
            ..ServerConfig::default()
        }
    }

    /// Returns the config with the server clock pinned to `now`.
    pub fn with_clock(mut self, now: Timestamp) -> Self {
        self.clock = Some(now);
        self
    }
}

/// A ROAP server on a real TCP listener.
///
/// `bind` starts one accept thread plus [`ServerConfig::workers`] worker
/// threads and returns immediately; [`RoapClient`]s connect via
/// [`TcpTransport::connect`] at [`RoapTcpServer::local_addr`]. Every frame
/// received on any connection goes through one shared [`RiService`] — the
/// same `&self` handlers the in-process and channel transports call, so a
/// lifecycle over TCP produces byte-identical protocol messages.
///
/// [`RoapClient`]: oma_drm::client::RoapClient
///
/// Call [`shutdown`](RoapTcpServer::shutdown) (or drop the server) to stop:
/// accepting ends, conversations in flight get their answers, the threads
/// join.
pub struct RoapTcpServer {
    local_addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    accept_thread: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
    metrics: Arc<ServerMetrics>,
    service: Arc<RiService>,
    store: Option<Arc<dyn RiJournal>>,
}

impl std::fmt::Debug for RoapTcpServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RoapTcpServer")
            .field("local_addr", &self.local_addr)
            .field("workers", &self.workers.len())
            .field("durable", &self.store.is_some())
            .finish_non_exhaustive()
    }
}

impl RoapTcpServer {
    /// Binds to an ephemeral loopback port (`127.0.0.1:0`) — the form tests,
    /// examples and the fleet harness use. Ask [`RoapTcpServer::local_addr`]
    /// for the chosen port.
    ///
    /// # Errors
    ///
    /// [`DrmError::Transport`] when the listener cannot be set up.
    pub fn bind(service: Arc<RiService>, config: ServerConfig) -> Result<Self, DrmError> {
        Self::bind_addr(service, (Ipv4Addr::LOCALHOST, 0), config)
    }

    /// Binds to an explicit address.
    ///
    /// # Errors
    ///
    /// See [`RoapTcpServer::bind`].
    pub fn bind_addr<A: ToSocketAddrs>(
        service: Arc<RiService>,
        addr: A,
        config: ServerConfig,
    ) -> Result<Self, DrmError> {
        let listener = TcpListener::bind(addr).map_err(|e| transport_err("bind", e))?;
        // Non-blocking accept lets the accept loop observe the shutdown flag
        // without a wake-up connection.
        listener
            .set_nonblocking(true)
            .map_err(|e| transport_err("set_nonblocking", e))?;
        let local_addr = listener
            .local_addr()
            .map_err(|e| transport_err("local_addr", e))?;

        // Durable mode: the store becomes the service's journal before the
        // first connection is accepted, so no mutation can slip past it —
        // and a boot snapshot is written immediately. Without it, a fresh
        // store would hold events but no genesis (identity is only ever in
        // snapshots), so a hard kill before graceful shutdown would leave
        // every fsync'd registration unrecoverable. On a recovered service
        // the same snapshot doubles as compaction: a freshly booted server
        // always starts from a replay-free store.
        if let Some(store) = &config.store {
            service.set_journal(Arc::clone(store));
            store.snapshot(&|| service.state_image())?;
        }

        let shutdown = Arc::new(AtomicBool::new(false));
        // With observability on, the connection counters live in the shared
        // registry (scrapable as `net_*`/`repl_*`); off, they live in a
        // private one and cost exactly what they used to.
        let metrics = Arc::new(match config.obs.obs() {
            Some(obs) => ServerMetrics::in_registry(obs.registry()),
            None => ServerMetrics::default(),
        });
        let net_obs = config.obs.obs().map(|obs| Arc::new(NetObs::new(obs)));
        // A *bounded* hand-off queue: a connect flood fills it and is then
        // shed at the accept loop instead of accumulating sockets (and FDs)
        // without limit behind a saturated pool. Each entry carries its
        // enqueue instant so the worker can account the queue wait.
        let (conn_tx, conn_rx) =
            mpsc::sync_channel::<(TcpStream, Instant)>(config.queue_depth.max(1));
        let conn_rx = Arc::new(Mutex::new(conn_rx));

        let clock = config.clock;
        let idle_timeout = config.idle_timeout;
        let frame_timeout = config.frame_timeout;
        let workers = (0..config.workers.max(1))
            .map(|i| {
                let service = Arc::clone(&service);
                let conn_rx = Arc::clone(&conn_rx);
                let shutdown = Arc::clone(&shutdown);
                let metrics = Arc::clone(&metrics);
                let store = config.store.clone();
                let net_obs = net_obs.clone();
                thread::Builder::new()
                    .name(format!("roap-tcp-worker-{i}"))
                    .spawn(move || loop {
                        // Hold the queue lock only for the hand-off itself.
                        let conn = conn_rx.lock().expect("connection queue lock").recv();
                        match conn {
                            Ok((stream, enqueued_at)) => {
                                metrics.on_dequeued();
                                let queue_wait = enqueued_at.elapsed();
                                if let Some(obs) = &net_obs {
                                    obs.record_queue_wait(queue_wait);
                                }
                                // A disconnect (or a peer that lost framing)
                                // ends one conversation, never the worker.
                                let _ = serve_connection_inner(
                                    &service,
                                    stream,
                                    clock,
                                    idle_timeout,
                                    frame_timeout,
                                    &shutdown,
                                    store.as_deref(),
                                    Some(&metrics),
                                    net_obs.as_deref(),
                                    duration_nanos(queue_wait),
                                );
                                metrics.on_served();
                            }
                            // The accept loop dropped the sender and the
                            // queue is drained: shutdown complete.
                            Err(_) => break,
                        }
                    })
                    .expect("spawn worker thread")
            })
            .collect();

        let accept_shutdown = Arc::clone(&shutdown);
        let accept_metrics = Arc::clone(&metrics);
        let accept_thread = thread::Builder::new()
            .name("roap-tcp-accept".into())
            .spawn(move || {
                // Exiting this loop drops `conn_tx`, which is what tells the
                // workers no further connections will arrive.
                while !accept_shutdown.load(Ordering::Relaxed) {
                    match listener.accept() {
                        Ok((stream, _peer)) => {
                            accept_metrics.on_accept();
                            accept_metrics.on_queued();
                            match conn_tx.try_send((stream, Instant::now())) {
                                Ok(()) => {}
                                Err(mpsc::TrySendError::Full((stream, _))) => {
                                    // Backpressure: tell the peer why before
                                    // hanging up, best-effort — it may already
                                    // be gone, which sheds just the same.
                                    accept_metrics.on_dequeued();
                                    accept_metrics.on_shed();
                                    let _ = stream.set_write_timeout(Some(POLL_INTERVAL));
                                    let _ = (&stream)
                                        .write_all(&RoapPdu::Status(RoapStatus::Busy).encode());
                                }
                                Err(mpsc::TrySendError::Disconnected(_)) => break,
                            }
                        }
                        Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                            thread::sleep(POLL_INTERVAL);
                        }
                        // Transient per-connection accept failures (e.g. the
                        // peer reset before the hand-off) leave the listener
                        // healthy; keep accepting.
                        Err(_) => thread::sleep(POLL_INTERVAL),
                    }
                }
            })
            .expect("spawn accept thread");

        Ok(RoapTcpServer {
            local_addr,
            shutdown,
            accept_thread: Some(accept_thread),
            workers,
            metrics,
            service,
            store: config.store,
        })
    }

    /// The address clients connect to.
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Number of connections whose conversation has finished (served to
    /// disconnect, protocol failure, or drained at shutdown).
    pub fn connections_served(&self) -> u64 {
        self.metrics.served()
    }

    /// The server's connection-level counters.
    pub fn metrics(&self) -> &ServerMetrics {
        &self.metrics
    }

    /// Graceful shutdown: stop accepting new connections, answer every
    /// frame already received on in-flight connections, close them, and
    /// join all server threads. Returns once the last worker has exited.
    ///
    /// On a durable server ([`ServerConfig::store`]) the drained service is
    /// then flushed and snapshotted, so the next boot recovers from a
    /// compact snapshot without replaying a single event. Store failures at
    /// this point are best-effort (shutdown still completes); they stay
    /// visible through the store's own fault accessor.
    ///
    /// Dropping the server performs the same shutdown implicitly.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        self.shutdown.store(true, Ordering::Relaxed);
        if let Some(accept) = self.accept_thread.take() {
            accept.join().expect("accept thread");
        }
        for worker in self.workers.drain(..) {
            worker.join().expect("worker thread");
        }
        if let Some(store) = self.store.take() {
            // Workers are joined: the service is quiescent, the image is a
            // consistent cut of everything that was acknowledged.
            let _ = store.flush();
            let service = &self.service;
            let _ = store.snapshot(&|| service.state_image());
        }
    }
}

impl Drop for RoapTcpServer {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Serves ROAP on one established TCP connection until the peer disconnects:
/// buffers incoming bytes, slices them into envelope frames (frames may
/// arrive split across segments or several-per-segment), feeds each through
/// [`RiService::dispatch_at`] (or [`RiService::dispatch`] when `clock` is
/// `None`) and writes the response frames back in order.
///
/// This is the loop every [`RoapTcpServer`] worker runs; it is public so
/// tests and examples owning their own listener can serve a single
/// connection directly.
///
/// # Errors
///
/// * [`DrmError::Transport`] — the peer disconnected (the *normal* end of a
///   conversation, surfaced explicitly so callers never spin on a dead
///   connection), delivered no byte for `idle_timeout` (a half-open or
///   abandoned connection), took longer than [`DEFAULT_FRAME_TIMEOUT`] to
///   complete a frame it had started (a slowloris peer), or a socket
///   operation failed,
/// * [`DrmError::Roap`] — the peer sent bytes that are not a ROAP envelope;
///   a `Status` PDU naming the reason is written back before the
///   connection closes, mirroring [`RiService::dispatch_batch`]'s
///   stream-poisoning behaviour.
pub fn serve_connection(
    service: &RiService,
    stream: TcpStream,
    clock: Option<Timestamp>,
    idle_timeout: Duration,
) -> Result<(), DrmError> {
    serve_connection_inner(
        service,
        stream,
        clock,
        idle_timeout,
        DEFAULT_FRAME_TIMEOUT,
        &AtomicBool::new(false),
        None,
        None,
        None,
        0,
    )
}

/// [`serve_connection`] with the server's shutdown flag threaded through:
/// once the flag is set, the loop answers the complete frames it has
/// already buffered and then returns `Ok(())` instead of waiting for more —
/// unconditionally, so a peer parked mid-frame can never hold up
/// [`RoapTcpServer::shutdown`].
#[allow(clippy::too_many_arguments)]
fn serve_connection_inner(
    service: &RiService,
    mut stream: TcpStream,
    clock: Option<Timestamp>,
    idle_timeout: Duration,
    frame_timeout: Duration,
    shutdown: &AtomicBool,
    store: Option<&dyn RiJournal>,
    metrics: Option<&ServerMetrics>,
    obs: Option<&NetObs>,
    queue_wait_nanos: u64,
) -> Result<(), DrmError> {
    // The connection's hand-off wait is attributed to its first frame's
    // span (later frames on the same connection waited in no queue).
    let mut queue_wait_nanos = queue_wait_nanos;
    // The read timeout doubles as the shutdown/idle poll interval.
    stream
        .set_read_timeout(Some(POLL_INTERVAL))
        .map_err(|e| transport_err("set_read_timeout", e))?;
    stream
        .set_nodelay(true)
        .map_err(|e| transport_err("set_nodelay", e))?;

    let mut buf: Vec<u8> = Vec::new();
    let mut chunk = [0u8; 4096];
    let mut last_byte_at = Instant::now();
    // When the first byte of a frame arrives, the whole frame must follow
    // within `frame_timeout`. Tracking this separately from `last_byte_at`
    // is the slowloris fix: a peer trickling one byte per `idle_timeout - ε`
    // resets the idle clock forever but can never reset this one.
    let mut frame_started_at: Option<Instant> = None;
    loop {
        // Answer every complete frame currently buffered.
        loop {
            match RoapPdu::frame_len(&buf) {
                Ok(Some(total)) if buf.len() >= total => {
                    // A durable server that can no longer persist must not
                    // keep acknowledging: on a latched store fault, stop
                    // this conversation *and* the whole server (the
                    // shutdown flag drains the other workers too).
                    if let Some(store) = store {
                        if let Err(e) = store.health() {
                            shutdown.store(true, Ordering::Relaxed);
                            return Err(e);
                        }
                    }
                    // Identity is read from the frame *before* dispatch (the bytes
                    // are drained after), the clock started right before it.
                    let span_seed = obs.map(|net_obs| {
                        let (mut span, cycles_before) = span_for_frame(&buf[..total], service);
                        span.queue_wait_nanos = std::mem::take(&mut queue_wait_nanos);
                        (net_obs, span, cycles_before, Instant::now())
                    });
                    let response = match clock {
                        Some(now) => service.dispatch_at(&buf[..total], now),
                        None => service.dispatch(&buf[..total]),
                    };
                    buf.drain(..total);
                    match span_seed {
                        None => stream
                            .write_all(&response)
                            .map_err(|e| transport_err("send response", e))?,
                        Some((net_obs, mut span, cycles_before, started)) => {
                            let dispatch = started.elapsed();
                            span.cycles = service.charged_cycles().saturating_sub(cycles_before);
                            let write_started = Instant::now();
                            let written = stream.write_all(&response);
                            net_obs.record_frame(dispatch, write_started.elapsed(), span);
                            written.map_err(|e| transport_err("send response", e))?;
                        }
                    }
                }
                // An incomplete frame: wait for the rest of it.
                Ok(_) => break,
                Err(e) => {
                    // Framing is lost for good — tell the peer why, then
                    // hang up.
                    let _ = stream.write_all(&RoapPdu::Status(RoapStatus::from(e)).encode());
                    return Err(DrmError::Roap(e));
                }
            }
        }

        // Whatever is left in `buf` after the frame loop is a partial frame;
        // its completion deadline started when its first byte arrived.
        if buf.is_empty() {
            frame_started_at = None;
        } else if frame_started_at.is_none() {
            frame_started_at = Some(Instant::now());
        }
        if let Some(started) = frame_started_at {
            if started.elapsed() >= frame_timeout {
                if let Some(m) = metrics {
                    m.on_reaped_frame();
                }
                return Err(DrmError::Transport(format!(
                    "partial frame not completed within {frame_timeout:?}, closing connection"
                )));
            }
        }

        if shutdown.load(Ordering::Relaxed) {
            // Drained: every complete frame received has been answered. A
            // partial trailing frame can never complete once we stop
            // reading, so it does not keep the connection (or the server's
            // shutdown) alive.
            return Ok(());
        }

        match stream.read(&mut chunk) {
            Ok(0) => {
                return Err(if buf.is_empty() {
                    DrmError::Transport("peer disconnected".into())
                } else {
                    DrmError::Transport(format!(
                        "peer disconnected mid-frame ({} bytes unparsed)",
                        buf.len()
                    ))
                });
            }
            Ok(n) => {
                buf.extend_from_slice(&chunk[..n]);
                last_byte_at = Instant::now();
            }
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock
                    || e.kind() == io::ErrorKind::TimedOut
                    || e.kind() == io::ErrorKind::Interrupted =>
            {
                if last_byte_at.elapsed() >= idle_timeout {
                    // Half-open peer or connect-and-say-nothing client: free
                    // the worker instead of letting it sit occupied forever.
                    if let Some(m) = metrics {
                        m.on_reaped_idle();
                    }
                    return Err(DrmError::Transport(format!(
                        "idle for {:?}, closing connection",
                        idle_timeout
                    )));
                }
            }
            Err(e) => return Err(transport_err("read", e)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oma_drm::client::RoapClient;
    use oma_drm::roap::DeviceHello;
    use oma_pki::CertificationAuthority;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn service() -> Arc<RiService> {
        let mut rng = StdRng::seed_from_u64(0x7c9);
        let mut ca = CertificationAuthority::new("cmla", 384, &mut rng);
        Arc::new(RiService::new("ri", 384, &mut ca, &mut rng))
    }

    fn pinned() -> ServerConfig {
        ServerConfig {
            workers: 2,
            clock: Some(Timestamp::new(1_000)),
            ..ServerConfig::default()
        }
    }

    #[test]
    fn metrics_display_is_byte_compatible_with_the_pre_registry_format() {
        // The metrics now live in an oma-obs registry, but MetricsSnapshot
        // and its Display line are a public, scrape-parsed surface — this
        // pins the exact bytes the pre-registry implementation emitted.
        let metrics = ServerMetrics::default();
        for _ in 0..4 {
            metrics.on_accept();
        }
        metrics.on_queued();
        metrics.on_queued();
        metrics.on_dequeued();
        metrics.on_shed();
        metrics.on_reaped_idle();
        metrics.on_served();
        metrics.on_reaped_frame();
        metrics.on_served();
        metrics.on_records_shipped(7);
        metrics.on_records_acked(5);
        metrics.set_follower_lag(2);
        metrics.set_epoch(3);
        assert_eq!(
            metrics.snapshot().to_string(),
            "accepted=4 served=2 active=1 (peak 4) reaped_idle=1 \
             reaped_frame=1 shed=1 queue_depth=1 (peak 2) \
             repl_shipped=7 repl_acked=5 repl_lag=2 epoch=3"
        );
    }

    #[test]
    fn hello_roundtrip_over_loopback() {
        let server = RoapTcpServer::bind(service(), pinned()).unwrap();
        let client = RoapClient::new(TcpTransport::connect(server.local_addr()).unwrap());
        let hello = client.hello(&DeviceHello::new("dev")).unwrap();
        assert_eq!(hello.ri_id, "ri");
        server.shutdown();
    }

    #[test]
    fn one_connection_carries_many_exchanges() {
        let server = RoapTcpServer::bind(service(), pinned()).unwrap();
        let client = RoapClient::new(TcpTransport::connect(server.local_addr()).unwrap());
        let mut sessions = Vec::new();
        for i in 0..5 {
            let hello = client
                .hello(&DeviceHello::new(&format!("dev-{i}")))
                .unwrap();
            sessions.push(hello.session_id);
        }
        sessions.dedup();
        assert_eq!(sessions.len(), 5, "each hello opened its own session");
        server.shutdown();
    }

    #[test]
    fn queued_connections_outnumbering_workers_are_all_served() {
        let service = service();
        let server = RoapTcpServer::bind(
            Arc::clone(&service),
            ServerConfig {
                workers: 1,
                clock: Some(Timestamp::new(1_000)),
                ..ServerConfig::default()
            },
        )
        .unwrap();
        // 6 concurrent clients against a single worker: connections queue at
        // the hand-off and every one still gets its answer.
        thread::scope(|scope| {
            for i in 0..6 {
                let addr = server.local_addr();
                scope.spawn(move || {
                    let client = RoapClient::new(TcpTransport::connect(addr).unwrap());
                    client
                        .hello(&DeviceHello::new(&format!("dev-{i}")))
                        .unwrap();
                });
            }
        });
        assert_eq!(service.pending_session_count(), 6);
        // Workers notice the hang-ups within a poll interval each.
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while server.connections_served() < 6 && std::time::Instant::now() < deadline {
            thread::sleep(POLL_INTERVAL);
        }
        assert_eq!(server.connections_served(), 6);
        server.shutdown();
    }

    #[test]
    fn server_disconnect_is_a_transport_error_on_the_client() {
        let server = RoapTcpServer::bind(service(), pinned()).unwrap();
        let transport = TcpTransport::connect(server.local_addr()).unwrap();
        let client = RoapClient::new(transport);
        client.hello(&DeviceHello::new("dev")).unwrap();
        server.shutdown();
        // The pool is gone; the next roundtrip cannot complete.
        let err = client.hello(&DeviceHello::new("dev")).unwrap_err();
        assert!(matches!(err, DrmError::Transport(_)), "got {err:?}");
    }

    #[test]
    fn connection_loop_surfaces_peer_disconnect() {
        // Drive serve_connection directly: a client that hangs up must end
        // the loop with a clean Transport error, not leave it spinning.
        let service = service();
        let listener = TcpListener::bind((Ipv4Addr::LOCALHOST, 0)).unwrap();
        let addr = listener.local_addr().unwrap();
        let result = thread::scope(|scope| {
            let service = &service;
            let handle = scope.spawn(move || {
                let (stream, _) = listener.accept().unwrap();
                serve_connection(
                    service,
                    stream,
                    Some(Timestamp::new(1_000)),
                    DEFAULT_IDLE_TIMEOUT,
                )
            });
            let client = RoapClient::new(TcpTransport::connect(addr).unwrap());
            client.hello(&DeviceHello::new("dev")).unwrap();
            drop(client);
            handle.join().expect("connection loop thread")
        });
        assert!(
            matches!(result, Err(DrmError::Transport(_))),
            "hang-up must end the loop with a Transport error, got {result:?}"
        );
    }

    #[test]
    fn non_roap_bytes_get_a_status_answer_and_a_hangup() {
        use oma_drm::roap::RoapError;
        let service = service();
        let listener = TcpListener::bind((Ipv4Addr::LOCALHOST, 0)).unwrap();
        let addr = listener.local_addr().unwrap();
        let (result, answer) = thread::scope(|scope| {
            let service = &service;
            let handle = scope.spawn(move || {
                let (stream, _) = listener.accept().unwrap();
                serve_connection(service, stream, None, DEFAULT_IDLE_TIMEOUT)
            });
            let mut stream = TcpStream::connect(addr).unwrap();
            stream.write_all(b"GET / HTTP/1.1\r\n\r\n").unwrap();
            let answer = read_frame(&mut stream);
            (handle.join().expect("connection loop thread"), answer)
        });
        assert_eq!(result, Err(DrmError::Roap(RoapError::Malformed)));
        let status = RoapPdu::decode(&answer.expect("status frame before hang-up")).unwrap();
        assert_eq!(
            status,
            RoapPdu::Status(RoapStatus::Roap(RoapError::Malformed))
        );
    }

    #[test]
    fn shutdown_completes_despite_a_parked_partial_frame() {
        // A peer that writes half a header and then goes silent (without
        // closing) must not be able to hold up graceful shutdown.
        let server = RoapTcpServer::bind(service(), pinned()).unwrap();
        let mut stream = TcpStream::connect(server.local_addr()).unwrap();
        stream.write_all(b"ROAP\x01").unwrap(); // valid magic, then nothing
        thread::sleep(POLL_INTERVAL * 4); // let a worker pick it up
        let started = Instant::now();
        server.shutdown();
        assert!(
            started.elapsed() < Duration::from_secs(5),
            "shutdown must drain, not wait for the missing frame bytes"
        );
    }

    #[test]
    fn idle_connections_are_reaped_and_free_their_worker() {
        let service = service();
        let server = RoapTcpServer::bind(
            Arc::clone(&service),
            ServerConfig {
                workers: 1,
                clock: Some(Timestamp::new(1_000)),
                idle_timeout: Duration::from_millis(100),
                ..ServerConfig::default()
            },
        )
        .unwrap();
        // A connect-and-say-nothing client occupies the only worker...
        let silent = TcpStream::connect(server.local_addr()).unwrap();
        let deadline = Instant::now() + Duration::from_secs(10);
        while server.connections_served() < 1 && Instant::now() < deadline {
            thread::sleep(POLL_INTERVAL);
        }
        // ...until the idle timeout reaps it, after which the next client
        // is served normally.
        assert_eq!(server.connections_served(), 1);
        let client = RoapClient::new(TcpTransport::connect(server.local_addr()).unwrap());
        assert_eq!(client.hello(&DeviceHello::new("dev")).unwrap().ri_id, "ri");
        drop(silent);
        server.shutdown();
    }

    #[test]
    fn durable_bind_on_a_fresh_store_survives_a_hard_kill() {
        use oma_drm::client::RoapClient;
        use oma_drm::DrmAgent;
        use oma_store::RiStore;

        let mut rng = StdRng::seed_from_u64(0xdead);
        let mut ca = oma_pki::CertificationAuthority::new("cmla", 384, &mut rng);
        let service = Arc::new(RiService::new("ri", 384, &mut ca, &mut rng));
        let store = Arc::new(RiStore::in_memory());
        // The one-liner path: no manual genesis snapshot — bind must write
        // one itself, or everything journaled afterwards is unrecoverable.
        let server = RoapTcpServer::bind(
            Arc::clone(&service),
            ServerConfig::durable(Arc::clone(&store) as Arc<dyn oma_drm::journal::RiJournal>)
                .with_clock(Timestamp::new(1_000)),
        )
        .unwrap();
        let mut agent = DrmAgent::new("phone-001", 384, &mut ca, &mut rng);
        let client = RoapClient::new(TcpTransport::connect(server.local_addr()).unwrap());
        agent.register_via(&client, Timestamp::new(1_000)).unwrap();
        drop(client);
        // Hard kill: no graceful shutdown, no final snapshot. (The leaked
        // server threads die with the test process.)
        std::mem::forget(server);

        let recovered = RiService::recover(&store).expect("fresh-store bind wrote a genesis");
        assert!(
            recovered.is_registered("phone-001"),
            "journaled registration must survive a hard kill"
        );
    }

    #[test]
    fn durable_server_stops_acknowledging_after_a_store_fault() {
        use oma_drm::client::RoapClient;
        use oma_store::{RiStore, StoreError};

        let mut rng = StdRng::seed_from_u64(0xfa_17);
        let mut ca = oma_pki::CertificationAuthority::new("cmla", 384, &mut rng);
        let service = Arc::new(RiService::new("ri", 384, &mut ca, &mut rng));
        let store = Arc::new(RiStore::in_memory());
        let server = RoapTcpServer::bind(
            Arc::clone(&service),
            ServerConfig::durable(Arc::clone(&store) as Arc<dyn oma_drm::journal::RiJournal>)
                .with_clock(Timestamp::new(1_000)),
        )
        .unwrap();

        let client = RoapClient::new(TcpTransport::connect(server.local_addr()).unwrap());
        client.hello(&DeviceHello::new("dev-ok")).unwrap();

        // Latch a fault: an event whose record no decoder would accept is
        // refused by the store (the wire's own body cap keeps such events
        // off the TCP path, so inject it directly — any backend I/O error
        // latches the same way).
        store.record(
            &oma_drm::RiEvent::SessionOpened {
                session_id: 99,
                device_id: "x".repeat(2 << 20),
                ri_nonce: vec![0; 14],
                opened_at: Timestamp::new(0),
            },
            &|| [0; 32],
        );
        assert!(matches!(store.fault(), Some(StoreError::RecordTooLarge(_))));

        // The server must now refuse further work instead of acknowledging
        // registrations it cannot persist: the open connection is dropped
        // on its next frame, and the listener winds down.
        let err = client.hello(&DeviceHello::new("dev")).unwrap_err();
        assert!(matches!(err, DrmError::Transport(_)), "got {err:?}");
        let deadline = Instant::now() + Duration::from_secs(10);
        let mut refused = false;
        while Instant::now() < deadline {
            let fresh = TcpTransport::connect(server.local_addr())
                .map(RoapClient::new)
                .and_then(|c| c.hello(&DeviceHello::new("late")));
            if fresh.is_err() {
                refused = true;
                break;
            }
            thread::sleep(POLL_INTERVAL);
        }
        assert!(refused, "a faulted durable server must stop serving");
        server.shutdown();
    }

    #[test]
    fn client_deadline_fires_against_a_hung_server() {
        // A listener that accepts and then never replies: without the
        // roundtrip deadline this hangs the client forever.
        let listener = TcpListener::bind((Ipv4Addr::LOCALHOST, 0)).unwrap();
        let addr = listener.local_addr().unwrap();
        let transport =
            TcpTransport::connect_with_deadline(addr, Some(Duration::from_millis(300))).unwrap();
        let (_held, _) = listener.accept().unwrap();
        let client = RoapClient::new(transport);
        let started = Instant::now();
        let err = client.hello(&DeviceHello::new("dev")).unwrap_err();
        assert!(matches!(err, DrmError::Transport(_)), "got {err:?}");
        assert!(
            started.elapsed() < Duration::from_secs(5),
            "deadline must fire, not block forever"
        );
    }

    #[test]
    fn connect_flood_is_shed_with_busy_when_the_queue_fills() {
        let service = service();
        let server = RoapTcpServer::bind(
            Arc::clone(&service),
            ServerConfig {
                workers: 1,
                queue_depth: 1,
                clock: Some(Timestamp::new(1_000)),
                idle_timeout: Duration::from_secs(30),
                ..ServerConfig::default()
            },
        )
        .unwrap();
        // Occupy the only worker with a connection that says nothing...
        let _occupier = TcpStream::connect(server.local_addr()).unwrap();
        thread::sleep(POLL_INTERVAL * 4);
        // ...then flood: with one queue slot, most arrivals must be shed
        // with a Busy status instead of piling up unserved.
        let mut busy = 0;
        for i in 0..8 {
            // Short client deadline: the one connection that *does* win the
            // queue slot is never served (the worker is occupied), and must
            // not stall the flood for the default 30s.
            let transport = TcpTransport::connect_with_deadline(
                server.local_addr(),
                Some(Duration::from_millis(500)),
            )
            .unwrap();
            let client = RoapClient::new(transport);
            if let Err(DrmError::Busy) = client.hello(&DeviceHello::new(&format!("flood-{i}"))) {
                busy += 1;
            }
        }
        assert!(busy >= 1, "a bounded queue must shed under flood");
        let snapshot = server.metrics().snapshot();
        assert!(snapshot.shed >= 1, "metrics: {snapshot}");
        assert!(
            snapshot.peak_queue_depth <= 2,
            "queue must stay bounded: {snapshot}"
        );
        server.shutdown();
    }

    #[test]
    fn slowloris_peer_is_reaped_by_the_frame_deadline() {
        let service = service();
        let server = RoapTcpServer::bind(
            Arc::clone(&service),
            ServerConfig {
                workers: 1,
                clock: Some(Timestamp::new(1_000)),
                // Generous idle timeout: each trickled byte resets the idle
                // clock, so only the frame deadline can save the worker.
                idle_timeout: Duration::from_secs(600),
                frame_timeout: Duration::from_millis(300),
                ..ServerConfig::default()
            },
        )
        .unwrap();
        let frame = RoapPdu::DeviceHello(DeviceHello::new("slow")).encode();
        let mut stream = TcpStream::connect(server.local_addr()).unwrap();
        let started = Instant::now();
        // Trickle one byte per 100ms — never idle, never a complete frame.
        let mut cut_off = false;
        for byte in &frame {
            if stream.write_all(&[*byte]).is_err() {
                cut_off = true;
                break;
            }
            thread::sleep(Duration::from_millis(100));
            if server.connections_served() >= 1 {
                cut_off = true;
                break;
            }
        }
        assert!(
            cut_off && started.elapsed() < Duration::from_secs(5),
            "the frame deadline must reap the slowloris"
        );
        let snapshot = server.metrics().snapshot();
        assert_eq!(snapshot.reaped_frame, 1, "metrics: {snapshot}");
        // The freed worker serves the next honest client.
        let client = RoapClient::new(TcpTransport::connect(server.local_addr()).unwrap());
        assert_eq!(client.hello(&DeviceHello::new("dev")).unwrap().ri_id, "ri");
        server.shutdown();
    }

    #[test]
    fn read_frame_reassembles_one_byte_writes() {
        let frame = RoapPdu::DeviceHello(DeviceHello::new("dev")).encode();
        let listener = TcpListener::bind((Ipv4Addr::LOCALHOST, 0)).unwrap();
        let addr = listener.local_addr().unwrap();
        let received = thread::scope(|scope| {
            let frame = &frame;
            scope.spawn(move || {
                let mut stream = TcpStream::connect(addr).unwrap();
                stream.set_nodelay(true).unwrap();
                for byte in frame.iter() {
                    stream.write_all(&[*byte]).unwrap();
                }
            });
            let (mut stream, _) = listener.accept().unwrap();
            read_frame(&mut stream).unwrap()
        });
        assert_eq!(received, frame);
    }

    #[test]
    fn obs_on_instruments_every_frame_and_changes_no_response_byte() {
        const FRAMES: usize = 6;
        /// One connection, `FRAMES` hello exchanges, the raw answers.
        fn converse(addr: SocketAddr) -> Vec<Vec<u8>> {
            let mut stream = TcpStream::connect(addr).unwrap();
            (0..FRAMES)
                .map(|i| {
                    let hello = DeviceHello::new(&format!("dev-{i}"));
                    stream
                        .write_all(&RoapPdu::DeviceHello(hello).encode())
                        .unwrap();
                    read_frame(&mut stream).unwrap()
                })
                .collect()
        }
        /// `serve` binds a core over a fresh service, converses and shuts
        /// down — which joins the serving threads, so every frame's write
        /// phase is on record by the time it returns.
        fn check(core: &str, serve: impl Fn(ServerConfig) -> Vec<Vec<u8>>) {
            let obs = Obs::new();
            let observed = serve(ServerConfig {
                obs: ObsConfig::On(Arc::clone(&obs)),
                ..pinned()
            });
            assert_eq!(observed, serve(pinned()), "{core}: obs changed a response");
            for name in ["net_frame_nanos", "net_dispatch_nanos", "net_write_nanos"] {
                let histogram = obs.registry().find_histogram(name);
                let count = histogram.map(|h| h.snapshot().count());
                assert_eq!(count, Some(FRAMES as u64), "{core}: {name}");
            }
            assert_eq!(obs.spans().spans().len(), FRAMES, "{core}");
            assert_eq!(obs.spans().recorded(), FRAMES as u64, "{core}");
            assert_eq!(obs.spans().dropped(), 0, "{core}");
        }
        check("thread pool", |config| {
            let server = RoapTcpServer::bind(service(), config).unwrap();
            let answers = converse(server.local_addr());
            server.shutdown();
            answers
        });
        check("event loop", |config| {
            let server = RoapEventServer::bind(service(), config).unwrap();
            let answers = converse(server.local_addr());
            server.shutdown();
            answers
        });
    }
}
