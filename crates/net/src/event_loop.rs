//! The readiness event loop: one thread, tens of thousands of connections.
//!
//! [`RoapEventServer`] is the crate's server core. It parks every
//! connection as a little state — a [`Connection`] with its
//! [`FrameMachine`](crate::conn::FrameMachine) — and one thread
//! multiplexes them all over a [`Poller`]:
//!
//! ```text
//!             ┌────────────── epoll wait (≤25ms tick) ──────────────┐
//!             ▼                                                     │
//!   listener readable ─▶ accept* ─▶ register(READ)                  │
//!   conn readable ─▶ fill ─▶ next_frame* ─▶ dispatch_at ─▶ queue ─▶ flush
//!   flush ─▶ (drained? READ : WRITE)                                │
//!   conn writable ─▶ flush ─▶ (drained? READ : WRITE)               │
//!             │                                                     │
//!             └─▶ deadline wheel sweep ─▶ reap idle / slowloris ────┘
//! ```
//!
//! Concurrency is therefore *connection-count*-bound
//! ([`ServerConfig::max_connections`]), and the 10k-mostly-idle fleet
//! scenario in `oma-load` runs against exactly this property. Dispatching
//! happens inline on the loop thread — the Rights Issuer's handlers are
//! milliseconds even with full-size RSA, and strict in-arrival-order
//! dispatch is what keeps event-loop runs byte-identical to the in-process
//! reference.
//!
//! A connection with unsent responses is armed for write readiness only:
//! the loop reads no further requests from a peer that is not reading its
//! answers, so the peer's own send buffer fills, its writes stall, and the
//! idle deadline reaps it. The response backlog stays bounded by what one
//! readiness event can read.

use crate::conn::{Connection, Expiry};
use crate::poll::{Event, Interest, Poller};
use crate::{span_for_frame, transport_err, NetObs, ServerConfig, ServerMetrics, POLL_INTERVAL};
use oma_drm::journal::RiJournal;
use oma_drm::service::RiService;
use oma_drm::wire::{RoapPdu, RoapStatus};
use oma_drm::DrmError;
use oma_pki::Timestamp;
use std::collections::HashMap;
use std::io::{self, Write};
use std::net::{Ipv4Addr, SocketAddr, TcpListener, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// The listener's poller token; connections start at 1.
const LISTENER_TOKEN: u64 = 0;

/// Wheel granularity: deadlines are detected at most one slot late.
const WHEEL_TICK: Duration = Duration::from_millis(100);

/// Wheel span = `WHEEL_TICK * WHEEL_SLOTS` ≈ 102s; deadlines beyond it
/// (a 10-minute idle timeout, say) simply take another revolution.
const WHEEL_SLOTS: usize = 1024;

/// How long graceful drain keeps retrying partial response writes before
/// giving up on a peer that stopped reading.
const DRAIN_BUDGET: Duration = Duration::from_secs(2);

/// A timer wheel over connection tokens: `insert` files a token under the
/// slot its deadline lands in, `sweep` drains every slot the clock has
/// passed since the last sweep. Deadlines farther out than the wheel span
/// park in their modular slot and are simply re-filed when it fires early
/// — the caller re-checks the real deadline anyway, so the wheel only has
/// to be *pessimistic*, never exact.
struct DeadlineWheel {
    slots: Vec<Vec<u64>>,
    cursor: usize,
    last_sweep: Instant,
}

impl DeadlineWheel {
    fn new(now: Instant) -> DeadlineWheel {
        DeadlineWheel {
            slots: (0..WHEEL_SLOTS).map(|_| Vec::new()).collect(),
            cursor: 0,
            last_sweep: now,
        }
    }

    fn insert(&mut self, token: u64, due: Instant, now: Instant) {
        let ticks = (due.saturating_duration_since(now).as_nanos() / WHEEL_TICK.as_nanos())
            .clamp(1, (WHEEL_SLOTS - 1) as u128) as usize;
        let slot = (self.cursor + ticks) % WHEEL_SLOTS;
        self.slots[slot].push(token);
    }

    /// Returns every token filed in a slot the clock has passed. The
    /// caller decides: reap, or re-[`insert`](DeadlineWheel::insert) at
    /// the real deadline.
    fn sweep(&mut self, now: Instant) -> Vec<u64> {
        let elapsed = now.saturating_duration_since(self.last_sweep);
        let ticks = (elapsed.as_nanos() / WHEEL_TICK.as_nanos()) as usize;
        if ticks == 0 {
            return Vec::new();
        }
        self.last_sweep += WHEEL_TICK * ticks as u32;
        let mut due = Vec::new();
        // More elapsed ticks than slots means every slot fired at least
        // once; one full revolution covers them all.
        for _ in 0..ticks.min(WHEEL_SLOTS) {
            self.cursor = (self.cursor + 1) % WHEEL_SLOTS;
            due.append(&mut self.slots[self.cursor]);
        }
        due
    }
}

/// A ROAP server on a real TCP listener, served by a single-threaded
/// readiness event loop. Concurrency is bound by
/// [`ServerConfig::max_connections`]; every frame goes through one shared
/// [`RiService`] — the same `&self` handlers the in-process and channel
/// transports call, so a lifecycle over TCP produces byte-identical
/// protocol messages.
///
/// Call [`shutdown`](RoapEventServer::shutdown) (or drop the server) to
/// stop: accepting ends, conversations in flight get their answers, the
/// loop thread joins.
///
/// ```
/// # use oma_drm::client::RoapClient;
/// # use oma_drm::roap::DeviceHello;
/// # use oma_drm::RiService;
/// # use oma_net::{RoapEventServer, ServerConfig, TcpTransport};
/// # use oma_pki::{CertificationAuthority, Timestamp};
/// # use rand::SeedableRng;
/// # use std::sync::Arc;
/// # fn main() -> Result<(), oma_drm::DrmError> {
/// # let mut rng = rand::rngs::StdRng::seed_from_u64(7);
/// # let mut ca = CertificationAuthority::new("cmla", 384, &mut rng);
/// # let service = Arc::new(RiService::new("ri.example.com", 384, &mut ca, &mut rng));
/// let server = RoapEventServer::bind(
///     service,
///     ServerConfig::default().with_clock(Timestamp::new(1_000)),
/// )?;
/// let client = RoapClient::new(TcpTransport::connect(server.local_addr())?);
/// assert_eq!(client.hello(&DeviceHello::new("dev"))?.ri_id, "ri.example.com");
/// # server.shutdown();
/// # Ok(()) }
/// ```
pub struct RoapEventServer {
    local_addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    loop_thread: Option<JoinHandle<()>>,
    metrics: Arc<ServerMetrics>,
    service: Arc<RiService>,
    store: Option<Arc<dyn RiJournal>>,
}

impl std::fmt::Debug for RoapEventServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RoapEventServer")
            .field("local_addr", &self.local_addr)
            .field("durable", &self.store.is_some())
            .finish_non_exhaustive()
    }
}

impl RoapEventServer {
    /// Binds to an ephemeral loopback port (`127.0.0.1:0`) — the form tests,
    /// examples and the fleet harness use. Ask
    /// [`RoapEventServer::local_addr`] for the chosen port.
    ///
    /// # Errors
    ///
    /// [`DrmError::Transport`] when the listener or poller cannot be set
    /// up; [`DrmError::Store`] when the durable boot snapshot fails.
    pub fn bind(service: Arc<RiService>, config: ServerConfig) -> Result<Self, DrmError> {
        Self::bind_addr(service, (Ipv4Addr::LOCALHOST, 0), config)
    }

    /// Binds to an explicit address.
    ///
    /// # Errors
    ///
    /// See [`RoapEventServer::bind`].
    pub fn bind_addr<A: ToSocketAddrs>(
        service: Arc<RiService>,
        addr: A,
        config: ServerConfig,
    ) -> Result<Self, DrmError> {
        let listener = TcpListener::bind(addr).map_err(|e| transport_err("bind", e))?;
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

        let poller = Poller::new().map_err(|e| transport_err("poller", e))?;
        poller
            .register(&listener, LISTENER_TOKEN, Interest::READ)
            .map_err(|e| transport_err("register listener", e))?;

        let shutdown = Arc::new(AtomicBool::new(false));
        // With observability on, the connection counters live in the shared
        // registry (scrapable as `net_*`/`repl_*`); off, they live in a
        // private one.
        let metrics = Arc::new(match config.obs.obs() {
            Some(obs) => ServerMetrics::in_registry(obs.registry()),
            None => ServerMetrics::default(),
        });
        let obs = config.obs.obs().map(|obs| Arc::new(NetObs::new(obs)));
        let mut core = EventLoop {
            poller,
            listener,
            service: Arc::clone(&service),
            clock: config.clock,
            idle_timeout: config.idle_timeout,
            frame_timeout: config.frame_timeout,
            max_connections: config.max_connections.max(1),
            store: config.store.clone(),
            metrics: Arc::clone(&metrics),
            shutdown: Arc::clone(&shutdown),
            conns: HashMap::new(),
            wheel: DeadlineWheel::new(Instant::now()),
            next_token: LISTENER_TOKEN + 1,
            obs,
        };
        let loop_thread = thread::Builder::new()
            .name("roap-event-loop".into())
            .spawn(move || core.run())
            .expect("spawn event loop thread");

        Ok(RoapEventServer {
            local_addr,
            shutdown,
            loop_thread: Some(loop_thread),
            metrics,
            service,
            store: config.store,
        })
    }

    /// The address clients connect to.
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Number of connections whose conversation has finished.
    pub fn connections_served(&self) -> u64 {
        self.metrics.served()
    }

    /// The server's connection-level counters.
    pub fn metrics(&self) -> &ServerMetrics {
        &self.metrics
    }

    /// Graceful shutdown: stop accepting, answer the frames already
    /// received, flush what the peers will read (bounded), close
    /// everything, join the loop thread.
    ///
    /// On a durable server ([`ServerConfig::store`]) the drained service is
    /// then flushed and snapshotted, so the next boot recovers from a
    /// compact snapshot without replaying a single event. Store failures at
    /// this point are best-effort (shutdown still completes); they stay
    /// visible through the store's own fault accessor.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        self.shutdown.store(true, Ordering::Relaxed);
        if let Some(handle) = self.loop_thread.take() {
            handle.join().expect("event loop thread");
        }
        if let Some(store) = self.store.take() {
            let _ = store.flush();
            let service = &self.service;
            let _ = store.snapshot(&|| service.state_image());
        }
    }
}

impl Drop for RoapEventServer {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Everything the loop thread owns. No locks anywhere: the only shared
/// state is the shutdown flag and the metrics atomics.
struct EventLoop {
    poller: Poller,
    listener: TcpListener,
    service: Arc<RiService>,
    clock: Option<Timestamp>,
    idle_timeout: Duration,
    frame_timeout: Duration,
    max_connections: usize,
    store: Option<Arc<dyn RiJournal>>,
    metrics: Arc<ServerMetrics>,
    shutdown: Arc<AtomicBool>,
    conns: HashMap<u64, Connection>,
    wheel: DeadlineWheel,
    next_token: u64,
    obs: Option<Arc<NetObs>>,
}

impl EventLoop {
    fn run(&mut self) {
        let mut events: Vec<Event> = Vec::new();
        // One loop-owned scratch buffer serves every connection's reads.
        let mut scratch = vec![0u8; 16 * 1024];
        while !self.shutdown.load(Ordering::Relaxed) {
            // The tick bounds shutdown latency and paces wheel sweeps.
            if self.poller.wait(&mut events, Some(POLL_INTERVAL)).is_err() {
                break;
            }
            // Tokens can die mid-batch (a close invalidates later events
            // for the same token); handlers tolerate missing entries.
            for &ev in &events {
                if ev.token == LISTENER_TOKEN {
                    self.accept_ready();
                } else {
                    self.conn_ready(ev, &mut scratch);
                }
            }
            self.reap_due();
        }
        self.drain();
    }

    fn accept_ready(&mut self) {
        loop {
            match self.listener.accept() {
                Ok((stream, _peer)) => {
                    self.metrics.on_accept();
                    if self.conns.len() >= self.max_connections {
                        // Shed: a best-effort Busy status, then hang up.
                        self.metrics.on_shed();
                        let _ = stream.set_nonblocking(true);
                        let _ = (&stream).write_all(&RoapPdu::Status(RoapStatus::Busy).encode());
                        continue;
                    }
                    let conn = match Connection::new(stream) {
                        Ok(conn) => conn,
                        Err(_) => {
                            self.metrics.on_served();
                            continue;
                        }
                    };
                    let token = self.next_token;
                    self.next_token += 1;
                    if self
                        .poller
                        .register(conn.stream(), token, Interest::READ)
                        .is_err()
                    {
                        self.metrics.on_served();
                        continue;
                    }
                    let now = Instant::now();
                    self.wheel.insert(
                        token,
                        conn.next_due(self.idle_timeout, self.frame_timeout),
                        now,
                    );
                    self.conns.insert(token, conn);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                // Transient accept failure; the listener stays registered.
                Err(_) => return,
            }
        }
    }

    fn conn_ready(&mut self, ev: Event, scratch: &mut [u8]) {
        let Some(conn) = self.conns.get_mut(&ev.token) else {
            return;
        };

        let mut peer_open = true;
        if ev.readable && !conn.is_closing() {
            match conn.fill(scratch) {
                Ok(open) => peer_open = open,
                Err(_) => {
                    self.close(ev.token, None);
                    return;
                }
            }
            if !self.dispatch_buffered(ev.token) {
                return;
            }
        }

        let Some(conn) = self.conns.get_mut(&ev.token) else {
            return;
        };
        match conn.flush() {
            Ok(true) => {
                if conn.is_closing() || !peer_open {
                    self.close(ev.token, None);
                    return;
                }
                // Fully drained: back to read-only interest (a no-op most
                // of the time, but required after a backpressure episode).
                let _ = self
                    .poller
                    .reregister(conn.stream(), ev.token, Interest::READ);
            }
            Ok(false) => {
                if !peer_open && !conn.is_closing() {
                    // EOF already seen: whatever flushes, flushes — but
                    // nothing new will be dispatched.
                    conn.set_closing();
                }
                // Backpressure: read nothing more until the peer takes
                // what it is owed.
                let _ = self
                    .poller
                    .reregister(conn.stream(), ev.token, Interest::WRITE);
            }
            Err(_) => self.close(ev.token, None),
        }
    }

    /// Answers every complete frame buffered on `token`. Returns `false`
    /// when the connection was closed in the process.
    fn dispatch_buffered(&mut self, token: u64) -> bool {
        loop {
            let Some(conn) = self.conns.get_mut(&token) else {
                return false;
            };
            match conn.machine().next_frame() {
                Ok(Some(frame)) => {
                    // A durable server that can no longer persist must not
                    // keep acknowledging: stop this conversation and the
                    // whole server.
                    if let Some(store) = &self.store {
                        if store.health().is_err() {
                            self.shutdown.store(true, Ordering::Relaxed);
                            self.close(token, None);
                            return false;
                        }
                    }
                    // Span identity is read from the frame before
                    // dispatch, the clock started right next to it.
                    let span_seed = self.obs.as_ref().map(|net_obs| {
                        let (span, cycles_before) = span_for_frame(&frame, &self.service);
                        (Arc::clone(net_obs), span, cycles_before, Instant::now())
                    });
                    let response = match self.clock {
                        Some(now) => self.service.dispatch_at(&frame, now),
                        None => self.service.dispatch(&frame),
                    };
                    let dispatched_at = Instant::now();
                    let Some(conn) = self.conns.get_mut(&token) else {
                        return false;
                    };
                    match span_seed {
                        None => conn.machine().queue_response(&response),
                        Some((net_obs, mut span, cycles_before, started)) => {
                            span.cycles =
                                self.service.charged_cycles().saturating_sub(cycles_before);
                            // "Write-back" here is the response-buffer
                            // enqueue: the socket flush is shared across
                            // connections and cannot be attributed per
                            // frame.
                            let write_started = Instant::now();
                            conn.machine().queue_response(&response);
                            net_obs.record_frame(
                                dispatched_at.duration_since(started),
                                write_started.elapsed(),
                                span,
                            );
                        }
                    }
                }
                Ok(None) => {
                    // The connection is filed under its idle deadline; a
                    // frame clock that just started is due sooner. The
                    // stale later entry is harmless (see `DeadlineWheel`).
                    if conn.note_frame_progress() {
                        let due = conn.next_due(self.idle_timeout, self.frame_timeout);
                        self.wheel.insert(token, due, Instant::now());
                    }
                    return true;
                }
                Err(e) => {
                    // Framing lost for good: tell the peer why, flush,
                    // close.
                    conn.machine()
                        .queue_response(&RoapPdu::Status(RoapStatus::from(e)).encode());
                    conn.set_closing();
                    return true;
                }
            }
        }
    }

    /// Sweeps the deadline wheel: reap expired connections, re-file live
    /// ones at their real next deadline.
    fn reap_due(&mut self) {
        let now = Instant::now();
        for token in self.wheel.sweep(now) {
            let Some(conn) = self.conns.get(&token) else {
                continue; // closed since it was filed
            };
            match conn.expired(now, self.idle_timeout, self.frame_timeout) {
                Some(expiry) => self.close(token, Some(expiry)),
                None => {
                    let due = conn.next_due(self.idle_timeout, self.frame_timeout);
                    self.wheel.insert(token, due, now);
                }
            }
        }
    }

    fn close(&mut self, token: u64, expiry: Option<Expiry>) {
        if let Some(conn) = self.conns.remove(&token) {
            let _ = self.poller.deregister(conn.stream());
            match expiry {
                Some(Expiry::Idle) => self.metrics.on_reaped_idle(),
                Some(Expiry::PartialFrame) => self.metrics.on_reaped_frame(),
                None => {}
            }
            self.metrics.on_served();
        }
    }

    /// Graceful drain: answer every frame already buffered, push the
    /// responses for as long as peers keep reading (bounded by
    /// [`DRAIN_BUDGET`]), close everything. A peer parked mid-frame can
    /// never complete it once we stop reading, so it simply gets closed.
    fn drain(&mut self) {
        let tokens: Vec<u64> = self.conns.keys().copied().collect();
        let store_healthy = self
            .store
            .as_ref()
            .is_none_or(|store| store.health().is_ok());
        if store_healthy {
            for token in tokens {
                self.dispatch_buffered(token);
            }
        }
        let deadline = Instant::now() + DRAIN_BUDGET;
        while Instant::now() < deadline {
            let mut pending = false;
            let mut dead = Vec::new();
            for (&token, conn) in self.conns.iter_mut() {
                match conn.flush() {
                    Ok(true) => {}
                    Ok(false) => pending = true,
                    Err(_) => dead.push(token),
                }
            }
            for token in dead {
                self.close(token, None);
            }
            if !pending {
                break;
            }
            thread::sleep(Duration::from_millis(5));
        }
        for token in self.conns.keys().copied().collect::<Vec<u64>>() {
            self.close(token, None);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{read_frame, TcpTransport};
    use oma_drm::client::RoapClient;
    use oma_drm::roap::DeviceHello;
    use oma_pki::CertificationAuthority;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::io::Read;
    use std::net::TcpStream;

    fn service() -> Arc<RiService> {
        let mut rng = StdRng::seed_from_u64(0x7c9);
        let mut ca = CertificationAuthority::new("cmla", 384, &mut rng);
        Arc::new(RiService::new("ri", 384, &mut ca, &mut rng))
    }

    fn pinned() -> ServerConfig {
        ServerConfig::default().with_clock(Timestamp::new(1_000))
    }

    #[test]
    fn hello_roundtrip() {
        let server = RoapEventServer::bind(service(), pinned()).unwrap();
        let client = RoapClient::new(TcpTransport::connect(server.local_addr()).unwrap());
        assert_eq!(client.hello(&DeviceHello::new("dev")).unwrap().ri_id, "ri");
        server.shutdown();
    }

    #[test]
    fn one_connection_carries_many_exchanges() {
        let server = RoapEventServer::bind(service(), pinned()).unwrap();
        let client = RoapClient::new(TcpTransport::connect(server.local_addr()).unwrap());
        let mut sessions = Vec::new();
        for i in 0..5 {
            sessions.push(
                client
                    .hello(&DeviceHello::new(&format!("dev-{i}")))
                    .unwrap()
                    .session_id,
            );
        }
        sessions.dedup();
        assert_eq!(sessions.len(), 5);
        server.shutdown();
    }

    #[test]
    fn many_concurrent_connections_on_one_thread() {
        let server = RoapEventServer::bind(service(), pinned()).unwrap();
        let addr = server.local_addr();
        // Far more simultaneous connections than any worker pool default:
        // all parked at once, then all driven.
        let transports: Vec<TcpTransport> = (0..64)
            .map(|_| TcpTransport::connect(addr).unwrap())
            .collect();
        for (i, transport) in transports.iter().enumerate() {
            let client = RoapClient::new(transport);
            assert_eq!(
                client
                    .hello(&DeviceHello::new(&format!("dev-{i}")))
                    .unwrap()
                    .ri_id,
                "ri"
            );
        }
        let snapshot = server.metrics().snapshot();
        assert!(snapshot.peak_active >= 64, "metrics: {snapshot}");
        drop(transports);
        server.shutdown();
    }

    #[test]
    fn one_byte_writes_are_reassembled() {
        let server = RoapEventServer::bind(service(), pinned()).unwrap();
        let frame = RoapPdu::DeviceHello(DeviceHello::new("dev")).encode();
        let mut stream = TcpStream::connect(server.local_addr()).unwrap();
        stream.set_nodelay(true).unwrap();
        for byte in &frame {
            stream.write_all(&[*byte]).unwrap();
        }
        let response = read_frame(&mut stream).unwrap();
        assert!(matches!(
            RoapPdu::decode(&response).unwrap(),
            RoapPdu::RiHello(_)
        ));
        server.shutdown();
    }

    #[test]
    fn non_roap_bytes_get_a_status_answer_and_a_hangup() {
        use oma_drm::roap::RoapError;
        let server = RoapEventServer::bind(service(), pinned()).unwrap();
        let mut stream = TcpStream::connect(server.local_addr()).unwrap();
        stream.write_all(b"GET / HTTP/1.1\r\n\r\n").unwrap();
        let answer = read_frame(&mut stream).unwrap();
        assert_eq!(
            RoapPdu::decode(&answer).unwrap(),
            RoapPdu::Status(RoapStatus::Roap(RoapError::Malformed))
        );
        // And the server hangs up after the status.
        let mut rest = Vec::new();
        stream.read_to_end(&mut rest).unwrap();
        assert!(rest.is_empty());
        server.shutdown();
    }

    #[test]
    fn idle_connections_are_reaped() {
        let service = service();
        let server = RoapEventServer::bind(
            Arc::clone(&service),
            ServerConfig {
                idle_timeout: Duration::from_millis(150),
                ..pinned()
            },
        )
        .unwrap();
        let mut silent = TcpStream::connect(server.local_addr()).unwrap();
        // The reap closes the socket: our next read sees EOF.
        let mut buf = [0u8; 1];
        silent
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let n = silent.read(&mut buf).unwrap();
        assert_eq!(n, 0, "reap must close the idle connection");
        let snapshot = server.metrics().snapshot();
        assert_eq!(snapshot.reaped_idle, 1, "metrics: {snapshot}");
        server.shutdown();
    }

    #[test]
    fn slowloris_is_reaped_by_the_frame_deadline() {
        let frame_timeout = Duration::from_millis(300);
        let service = service();
        let server = RoapEventServer::bind(
            Arc::clone(&service),
            ServerConfig {
                idle_timeout: Duration::from_secs(600),
                frame_timeout,
                ..pinned()
            },
        )
        .unwrap();
        let frame = RoapPdu::DeviceHello(DeviceHello::new("slow")).encode();
        let mut stream = TcpStream::connect(server.local_addr()).unwrap();
        // The read timeout doubles as the trickle pace.
        stream
            .set_read_timeout(Some(Duration::from_millis(50)))
            .unwrap();
        // The wheel may fire a deadline one tick early and re-file it one
        // tick out, and a sweep waits for the next poll tick; the slack is
        // for scheduling (2 s in total). The idle deadline (600 s, clamped
        // to one wheel revolution of ~102 s) is far outside it.
        let slack = Duration::from_millis(1_475);
        let limit = frame_timeout + 2 * WHEEL_TICK + POLL_INTERVAL + slack;
        // Trickle a byte every 50ms and withhold the last one: never idle,
        // never complete.
        let mut trickle = frame[..frame.len() - 1].iter();
        let started = Instant::now();
        let mut reaped_after = None;
        while reaped_after.is_none() && started.elapsed() < limit {
            let hung_up = trickle
                .next()
                .is_some_and(|byte| stream.write_all(&[*byte]).is_err())
                || matches!(stream.peek(&mut [0u8; 1]), Ok(0));
            if hung_up {
                reaped_after = Some(started.elapsed());
            }
        }
        let reaped_after = reaped_after.expect("slowloris must be cut off by the frame deadline");
        assert!(
            reaped_after >= frame_timeout,
            "reaped after {reaped_after:?}, before the frame deadline"
        );
        let snapshot = server.metrics().snapshot();
        assert_eq!(snapshot.reaped_frame, 1, "metrics: {snapshot}");
        // The loop is free again for an honest client.
        let client = RoapClient::new(TcpTransport::connect(server.local_addr()).unwrap());
        assert_eq!(client.hello(&DeviceHello::new("dev")).unwrap().ri_id, "ri");
        server.shutdown();
    }

    #[test]
    fn connections_beyond_the_cap_are_shed_with_busy() {
        let server = RoapEventServer::bind(
            service(),
            ServerConfig {
                max_connections: 2,
                ..pinned()
            },
        )
        .unwrap();
        let addr = server.local_addr();
        let _a = TcpTransport::connect(addr).unwrap();
        let _b = TcpTransport::connect(addr).unwrap();
        // Park the first two, then watch a third get the Busy status.
        let deadline = Instant::now() + Duration::from_secs(5);
        let mut shed = false;
        while Instant::now() < deadline && !shed {
            let extra = TcpTransport::connect(addr).unwrap();
            match RoapClient::new(extra).hello(&DeviceHello::new("late")) {
                Err(DrmError::Busy) => shed = true,
                // The cap is enforced when the loop *accepts*, so a racing
                // connect may still sneak in while a or b is pending
                // registration; retry.
                _ => thread::sleep(Duration::from_millis(20)),
            }
        }
        assert!(shed, "over-cap connection must see DrmError::Busy");
        assert!(server.metrics().snapshot().shed >= 1);
        server.shutdown();
    }

    #[test]
    fn shutdown_completes_despite_a_parked_partial_frame() {
        let server = RoapEventServer::bind(service(), pinned()).unwrap();
        let mut stream = TcpStream::connect(server.local_addr()).unwrap();
        stream.write_all(b"ROAP\x01").unwrap();
        thread::sleep(POLL_INTERVAL * 4);
        let started = Instant::now();
        server.shutdown();
        assert!(started.elapsed() < Duration::from_secs(5));
    }

    #[test]
    fn shutdown_answers_buffered_frames() {
        let server = RoapEventServer::bind(service(), pinned()).unwrap();
        let transport = TcpTransport::connect(server.local_addr()).unwrap();
        let client = RoapClient::new(transport);
        client.hello(&DeviceHello::new("dev")).unwrap();
        server.shutdown();
        let err = client.hello(&DeviceHello::new("dev")).unwrap_err();
        assert!(matches!(err, DrmError::Transport(_)), "got {err:?}");
    }

    #[test]
    fn durable_server_stops_acknowledging_after_a_store_fault() {
        use oma_store::{RiStore, StoreError};

        let mut rng = StdRng::seed_from_u64(0xfa_17);
        let mut ca = CertificationAuthority::new("cmla", 384, &mut rng);
        let service = Arc::new(RiService::new("ri", 384, &mut ca, &mut rng));
        let store = Arc::new(RiStore::in_memory());
        let server = RoapEventServer::bind(
            Arc::clone(&service),
            ServerConfig::durable(Arc::clone(&store) as Arc<dyn RiJournal>)
                .with_clock(Timestamp::new(1_000)),
        )
        .unwrap();

        let client = RoapClient::new(TcpTransport::connect(server.local_addr()).unwrap());
        client.hello(&DeviceHello::new("dev-ok")).unwrap();

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

        let err = client.hello(&DeviceHello::new("dev")).unwrap_err();
        assert!(matches!(err, DrmError::Transport(_)), "got {err:?}");
        server.shutdown();
    }

    #[test]
    fn durable_bind_on_a_fresh_store_survives_a_hard_kill() {
        use oma_drm::DrmAgent;
        use oma_store::RiStore;

        let mut rng = StdRng::seed_from_u64(0xdead);
        let mut ca = CertificationAuthority::new("cmla", 384, &mut rng);
        let service = Arc::new(RiService::new("ri", 384, &mut ca, &mut rng));
        let store = Arc::new(RiStore::in_memory());
        // The one-liner path: no manual genesis snapshot — bind must write
        // one itself, or everything journaled afterwards is unrecoverable.
        let server = RoapEventServer::bind(
            Arc::clone(&service),
            ServerConfig::durable(Arc::clone(&store) as Arc<dyn RiJournal>)
                .with_clock(Timestamp::new(1_000)),
        )
        .unwrap();
        let mut agent = DrmAgent::new("phone-001", 384, &mut ca, &mut rng);
        let client = RoapClient::new(TcpTransport::connect(server.local_addr()).unwrap());
        agent.register_via(&client, Timestamp::new(1_000)).unwrap();
        drop(client);
        // Hard kill: no graceful shutdown, no final snapshot. (The leaked
        // loop thread dies with the test process.)
        std::mem::forget(server);

        let recovered = RiService::recover(&store).expect("fresh-store bind wrote a genesis");
        assert!(
            recovered.is_registered("phone-001"),
            "journaled registration must survive a hard kill"
        );
    }

    #[test]
    fn a_peer_that_never_reads_stops_being_read() {
        // Stateless requests (a Status PDU is answered with an error
        // Status and opens no session) written by a peer that never reads
        // a byte back. Once the server's responses back up, it must stop
        // reading: the peer's writes stall within a bounded volume, the
        // server dispatches nothing more, and the idle deadline reaps it.
        const LIMIT: usize = 64 << 20;
        let idle_timeout = Duration::from_secs(3);
        let obs = oma_obs::Obs::new();
        let server = RoapEventServer::bind(
            service(),
            ServerConfig {
                idle_timeout,
                obs: crate::ObsConfig::On(Arc::clone(&obs)),
                ..pinned()
            },
        )
        .unwrap();
        let dispatched = || {
            let histogram = obs.registry().find_histogram("net_dispatch_nanos");
            histogram.map_or(0, |h| h.snapshot().count())
        };
        let mut stream = TcpStream::connect(server.local_addr()).unwrap();
        stream
            .set_write_timeout(Some(Duration::from_secs(2)))
            .unwrap();
        let frame = RoapPdu::Status(RoapStatus::Busy).encode();
        let burst: Vec<u8> = frame.repeat((64 << 10) / frame.len());
        let mut written = 0;
        while written < LIMIT {
            match stream.write(&burst) {
                Ok(n) => written += n,
                Err(_) => break,
            }
        }
        assert!(
            written < LIMIT,
            "{written} bytes accepted from a peer that reads nothing"
        );
        // A server that is merely slow would still be dispatching the
        // bytes it has; a backpressured one has stopped.
        let before = dispatched();
        thread::sleep(Duration::from_millis(500));
        assert_eq!(
            dispatched(),
            before,
            "the server kept reading from a peer that reads nothing"
        );
        let deadline = Instant::now() + idle_timeout + Duration::from_secs(5);
        while server.metrics().snapshot().reaped_idle == 0 && Instant::now() < deadline {
            thread::sleep(POLL_INTERVAL);
        }
        let snapshot = server.metrics().snapshot();
        assert_eq!(snapshot.reaped_idle, 1, "metrics: {snapshot}");
        drop(stream);
        server.shutdown();
    }

    #[test]
    fn deadline_wheel_fires_and_refiles() {
        let t0 = Instant::now();
        let mut wheel = DeadlineWheel::new(t0);
        wheel.insert(1, t0 + Duration::from_millis(150), t0);
        wheel.insert(2, t0 + Duration::from_secs(500), t0); // beyond span
        assert!(wheel.sweep(t0 + Duration::from_millis(50)).is_empty());
        let due = wheel.sweep(t0 + Duration::from_millis(350));
        assert!(due.contains(&1), "past deadline must fire: {due:?}");
        // The far-out token fires (pessimistically) within one revolution.
        let all = wheel.sweep(t0 + Duration::from_secs(200));
        assert!(all.contains(&2));
    }
}
