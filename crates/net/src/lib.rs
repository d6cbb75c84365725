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
//! * [`RoapEventServer`] — the service end, and the crate's one server
//!   core: the readiness [`event_loop`]. One thread and an epoll-backed
//!   [`poll::Poller`] drive non-blocking sockets through per-connection
//!   [`conn::FrameMachine`]s, so tens of thousands of mostly-idle handsets
//!   park on one core. Every received frame goes through
//!   [`RiService::dispatch_at`], so certificate validity is judged by the
//!   *server's* clock, never the peer's (see [`ServerConfig::clock`]).
//!
//! The crate is std-only by design (the vendored-deps rule): no async
//! runtime, no socket abstraction — `std::net` sockets, one loop thread
//! and a four-function epoll shim.
//!
//! The server counts its connections in [`ServerMetrics`]
//! (accepted/active/reaped/shed) and shuts down gracefully: stop
//! accepting, answer every frame already received on in-flight
//! connections, then join. Frames may arrive split across TCP segments or
//! coalesced several-per-segment; peers that stop delivering bytes are
//! reaped after [`ServerConfig::idle_timeout`], and a peer that stops
//! reading its responses stops being read from, so it is reaped too.

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
use oma_drm::wire::RoapPdu;
use oma_drm::DrmError;
pub use oma_obs::ObsConfig;

use oma_obs::{Counter as ObsCounter, Gauge as ObsGauge, Histogram, Obs, Registry, Span};
use oma_pki::Timestamp;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The event loop's epoll tick: the longest one wait blocks before the
/// loop re-checks the shutdown flag and sweeps the deadline wheel. Bounds
/// shutdown latency without busy-waiting.
const POLL_INTERVAL: Duration = Duration::from_millis(25);

/// Default [`ServerConfig::idle_timeout`]: generous next to any honest
/// client's think time (even full-size RSA signing is milliseconds), small
/// enough that an abandoned connection frees its slot quickly.
pub const DEFAULT_IDLE_TIMEOUT: Duration = Duration::from_secs(30);

/// Default [`ServerConfig::frame_timeout`]: how long a peer may take to
/// finish delivering a frame it has started. Any honest client writes a
/// whole frame in one burst, so seconds of slack is generous — while a
/// slowloris peer trickling one byte per `idle_timeout - ε` is reaped here
/// instead of holding a connection slot forever.
pub const DEFAULT_FRAME_TIMEOUT: Duration = Duration::from_secs(10);

/// Default [`ServerConfig::max_connections`].
pub const DEFAULT_MAX_CONNECTIONS: usize = 16_384;

/// Default client-side [`TcpTransport`] deadline: every
/// [`roundtrip`](RoapTransport::roundtrip) must connect/send/receive within
/// this budget or fail with [`DrmError::Transport`], so a wedged server can
/// never hang a client (or the fleet harness) forever.
pub const DEFAULT_CLIENT_DEADLINE: Duration = Duration::from_secs(30);

/// The server's connection-level counters, readable at any time via
/// [`ServerMetrics::snapshot`]. The `active` gauge tracks the current
/// value and remembers its peak; everything else is a monotonic counter.
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
    /// Connections shed with [`RoapStatus::Busy`](oma_drm::wire::RoapStatus::Busy) because the connection
    /// table was full ([`ServerConfig::max_connections`]).
    pub shed: u64,
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
             reaped_frame={} shed={} \
             repl_shipped={} repl_acked={} repl_lag={} epoch={}",
            self.accepted,
            self.served,
            self.active,
            self.peak_active,
            self.reaped_idle,
            self.reaped_frame,
            self.shed,
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
}

impl NetObs {
    pub(crate) fn new(obs: &Arc<Obs>) -> NetObs {
        let registry = obs.registry();
        NetObs {
            obs: Arc::clone(obs),
            frame_nanos: registry.histogram("net_frame_nanos"),
            dispatch_nanos: registry.histogram("net_dispatch_nanos"),
            write_nanos: registry.histogram("net_write_nanos"),
        }
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
/// # use oma_net::{RoapEventServer, ServerConfig, TcpTransport};
/// # use oma_pki::{CertificationAuthority, Timestamp};
/// # use rand::SeedableRng;
/// # use std::sync::Arc;
/// # fn main() -> Result<(), oma_drm::DrmError> {
/// # let mut rng = rand::rngs::StdRng::seed_from_u64(7);
/// # let mut ca = CertificationAuthority::new("cmla", 384, &mut rng);
/// # let service = Arc::new(RiService::new("ri.example.com", 384, &mut ca, &mut rng));
/// # let mut agent = DrmAgent::new("phone-001", 384, &mut ca, &mut rng);
/// # let now = Timestamp::new(1_000);
/// # let server = RoapEventServer::bind(
/// #     service,
/// #     ServerConfig { clock: Some(now), ..ServerConfig::default() },
/// # )?;
/// let client = RoapClient::new(TcpTransport::connect(server.local_addr())?);
/// agent.register(&client, now)?;
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
    /// [`RoapEventServer::local_addr`]. Nagle's algorithm is disabled: frames
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

/// Tuning knobs of a [`RoapEventServer`].
#[derive(Clone)]
pub struct ServerConfig {
    /// The server-pinned clock handed to [`RiService::dispatch_at`] for
    /// every frame. `None` falls back to [`RiService::dispatch`], which
    /// trusts each request's own `request_time` — acceptable between
    /// cooperating test processes, not on a hostile wire (a peer could
    /// back-date itself into an expired certificate's validity window).
    pub clock: Option<Timestamp>,
    /// How long a connection may sit without delivering a single byte
    /// before the server hangs up on it. This is what keeps a half-open
    /// peer (vanished without a FIN), a connect-and-say-nothing client, or
    /// a peer that stopped reading its responses from holding a
    /// connection slot forever.
    pub idle_timeout: Duration,
    /// How long a peer may take to complete a frame it has started
    /// delivering. Byte-level idleness alone is not enough: a slowloris
    /// peer trickling one byte per `idle_timeout - ε` never goes idle yet
    /// never completes a frame — this deadline reaps it.
    pub frame_timeout: Duration,
    /// Most connections the server keeps open at once; beyond it, fresh
    /// connections are shed with a [`RoapStatus::Busy`](oma_drm::wire::RoapStatus::Busy) reply instead of
    /// accumulating without backpressure.
    pub max_connections: usize,
    /// Optional durable store. When set, [`RoapEventServer::bind`] attaches
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
    /// `net_write_nanos`), publishes the [`ServerMetrics`] counters into
    /// the surface's registry, and deposits one [`Span`] per served frame
    /// in the span ring.
    pub obs: ObsConfig,
}

impl std::fmt::Debug for ServerConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServerConfig")
            .field("clock", &self.clock)
            .field("idle_timeout", &self.idle_timeout)
            .field("frame_timeout", &self.frame_timeout)
            .field("max_connections", &self.max_connections)
            .field("durable", &self.store.is_some())
            .field("obs", &self.obs.is_on())
            .finish()
    }
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            clock: None,
            idle_timeout: DEFAULT_IDLE_TIMEOUT,
            frame_timeout: DEFAULT_FRAME_TIMEOUT,
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

#[cfg(test)]
mod tests {
    use super::*;
    use oma_drm::client::RoapClient;
    use oma_drm::roap::DeviceHello;
    use oma_drm::wire::RoapStatus;
    use oma_pki::CertificationAuthority;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::net::{Ipv4Addr, TcpListener};
    use std::thread;

    fn service() -> Arc<RiService> {
        let mut rng = StdRng::seed_from_u64(0x7c9);
        let mut ca = CertificationAuthority::new("cmla", 384, &mut rng);
        Arc::new(RiService::new("ri", 384, &mut ca, &mut rng))
    }

    fn pinned() -> ServerConfig {
        ServerConfig::default().with_clock(Timestamp::new(1_000))
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
             reaped_frame=1 shed=1 \
             repl_shipped=7 repl_acked=5 repl_lag=2 epoch=3"
        );
    }

    #[test]
    fn hello_roundtrip_over_loopback() {
        let server = RoapEventServer::bind(service(), pinned()).unwrap();
        let client = RoapClient::new(TcpTransport::connect(server.local_addr()).unwrap());
        let hello = client.hello(&DeviceHello::new("dev")).unwrap();
        assert_eq!(hello.ri_id, "ri");
        server.shutdown();
    }

    #[test]
    fn one_connection_carries_many_exchanges() {
        let server = RoapEventServer::bind(service(), pinned()).unwrap();
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
    fn server_disconnect_is_a_transport_error_on_the_client() {
        let server = RoapEventServer::bind(service(), pinned()).unwrap();
        let transport = TcpTransport::connect(server.local_addr()).unwrap();
        let client = RoapClient::new(transport);
        client.hello(&DeviceHello::new("dev")).unwrap();
        server.shutdown();
        // The server is gone; the next roundtrip cannot complete.
        let err = client.hello(&DeviceHello::new("dev")).unwrap_err();
        assert!(matches!(err, DrmError::Transport(_)), "got {err:?}");
    }

    #[test]
    fn non_roap_bytes_get_a_status_answer_and_a_hangup() {
        use oma_drm::roap::RoapError;
        // Framing lost mid-conversation: the honest frame before the
        // garbage is still answered, then the Status, then the hang-up.
        let server = RoapEventServer::bind(service(), pinned()).unwrap();
        let mut stream = TcpStream::connect(server.local_addr()).unwrap();
        let mut wire = RoapPdu::DeviceHello(DeviceHello::new("dev")).encode();
        wire.extend_from_slice(b"GET / HTTP/1.1\r\n\r\n");
        stream.write_all(&wire).unwrap();
        let hello = RoapPdu::decode(&read_frame(&mut stream).unwrap()).unwrap();
        assert!(matches!(hello, RoapPdu::RiHello(_)), "got {hello:?}");
        let status = RoapPdu::decode(&read_frame(&mut stream).unwrap()).unwrap();
        assert_eq!(
            status,
            RoapPdu::Status(RoapStatus::Roap(RoapError::Malformed))
        );
        let mut rest = Vec::new();
        stream.read_to_end(&mut rest).unwrap();
        assert!(rest.is_empty(), "the server hangs up after the status");
        server.shutdown();
    }

    #[test]
    fn shutdown_completes_despite_a_parked_partial_frame() {
        // A peer that writes half a header and then goes silent (without
        // closing) must not be able to hold up graceful shutdown.
        let server = RoapEventServer::bind(service(), pinned()).unwrap();
        let mut stream = TcpStream::connect(server.local_addr()).unwrap();
        stream.write_all(b"ROAP\x01").unwrap(); // valid magic, then nothing
        thread::sleep(POLL_INTERVAL * 4); // let the loop accept it
        let started = Instant::now();
        server.shutdown();
        assert!(
            started.elapsed() < Duration::from_secs(5),
            "shutdown must drain, not wait for the missing frame bytes"
        );
        // The drain closed the parked peer without answering anything.
        let mut rest = Vec::new();
        stream.read_to_end(&mut rest).unwrap();
        assert!(rest.is_empty(), "got {rest:?}");
    }

    #[test]
    fn idle_connections_are_reaped_and_free_their_worker() {
        let server = RoapEventServer::bind(
            service(),
            ServerConfig {
                idle_timeout: Duration::from_millis(100),
                max_connections: 1,
                ..pinned()
            },
        )
        .unwrap();
        // A connect-and-say-nothing client occupies the only slot...
        let silent = TcpStream::connect(server.local_addr()).unwrap();
        let deadline = Instant::now() + Duration::from_secs(10);
        while server.connections_served() < 1 && Instant::now() < deadline {
            thread::sleep(POLL_INTERVAL);
        }
        // ...until the idle timeout reaps it, after which the next client
        // is served normally.
        assert_eq!(server.connections_served(), 1);
        assert_eq!(server.metrics().snapshot().reaped_idle, 1);
        let client = RoapClient::new(TcpTransport::connect(server.local_addr()).unwrap());
        assert_eq!(client.hello(&DeviceHello::new("dev")).unwrap().ri_id, "ri");
        drop(silent);
        server.shutdown();
    }

    #[test]
    fn durable_server_stops_acknowledging_after_a_store_fault() {
        use oma_store::{RiStore, StoreError};

        let mut rng = StdRng::seed_from_u64(0xfa_17);
        let mut ca = oma_pki::CertificationAuthority::new("cmla", 384, &mut rng);
        let service = Arc::new(RiService::new("ri", 384, &mut ca, &mut rng));
        let store = Arc::new(RiStore::in_memory());
        let server = RoapEventServer::bind(
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
            let fresh = TcpTransport::connect_with_deadline(
                server.local_addr(),
                Some(Duration::from_secs(1)),
            )
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
        let server = RoapEventServer::bind(
            service(),
            ServerConfig {
                max_connections: 1,
                ..pinned()
            },
        )
        .unwrap();
        // Occupy the only connection slot with a peer that says nothing...
        let _occupier = TcpStream::connect(server.local_addr()).unwrap();
        thread::sleep(POLL_INTERVAL * 4);
        // ...then flood: every arrival must be shed with a Busy status
        // instead of piling up unserved. (The Busy frame is best-effort: a
        // peer whose request lands after the hang-up may see a reset
        // instead, so only the server's count is exact.)
        let mut busy = 0;
        for i in 0..8 {
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
        assert!(busy >= 1, "a full connection table must shed under flood");
        let snapshot = server.metrics().snapshot();
        assert_eq!(snapshot.shed, 8, "metrics: {snapshot}");
        assert!(
            snapshot.peak_active <= 2,
            "the table must stay bounded: {snapshot}"
        );
        server.shutdown();
    }

    #[test]
    fn slowloris_peer_is_reaped_by_the_frame_deadline() {
        let server = RoapEventServer::bind(
            service(),
            ServerConfig {
                // Generous idle timeout: each trickled byte resets the idle
                // clock, so only the frame deadline can free the slot.
                idle_timeout: Duration::from_secs(600),
                frame_timeout: Duration::from_millis(300),
                max_connections: 1,
                ..pinned()
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
        // The freed slot serves the next honest client.
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
        /// Binds a server over a fresh service, runs `FRAMES` hello
        /// exchanges on one connection and shuts down — which joins the
        /// loop thread, so every frame is on record by the time it returns.
        fn serve(config: ServerConfig) -> Vec<Vec<u8>> {
            let server = RoapEventServer::bind(service(), config).unwrap();
            let mut stream = TcpStream::connect(server.local_addr()).unwrap();
            let answers = (0..FRAMES)
                .map(|i| {
                    let hello = DeviceHello::new(&format!("dev-{i}"));
                    stream
                        .write_all(&RoapPdu::DeviceHello(hello).encode())
                        .unwrap();
                    read_frame(&mut stream).unwrap()
                })
                .collect();
            server.shutdown();
            answers
        }
        let obs = Obs::new();
        let observed = serve(ServerConfig {
            obs: ObsConfig::On(Arc::clone(&obs)),
            ..pinned()
        });
        assert_eq!(observed, serve(pinned()), "obs changed a response");
        for name in ["net_frame_nanos", "net_dispatch_nanos", "net_write_nanos"] {
            let histogram = obs.registry().find_histogram(name);
            let count = histogram.map(|h| h.snapshot().count());
            assert_eq!(count, Some(FRAMES as u64), "{name}");
        }
        assert_eq!(obs.spans().spans().len(), FRAMES);
        assert_eq!(obs.spans().recorded(), FRAMES as u64);
        assert_eq!(obs.spans().dropped(), 0);
    }
}
