//! The three kinds of server traffic and the two closed-loop phase shapes.
//!
//! Both shapes are closed loops, because that is what repeated on this
//! 2-vCPU box (see the README for the open-loop numbers that did not):
//!
//! * **`sat`** — one generator thread drives `lanes` (= `nproc`)
//!   connections, served round-robin, so the server's single loop thread
//!   never idles. Keep-alive traffic holds a sliding window of
//!   [`SAT_DEPTH`] requests in flight per connection: with only one each,
//!   the crypto-free hello round trip was bimodal (30 k vs 136 k ops/s
//!   between identical runs) depending on whether the loop thread had gone
//!   to sleep and needed a cross-CPU wake-up. Unpinned. Yields capacity
//!   (and, in the traced pass, the loaded p99).
//! * **`solo`** — one op in flight, the whole socket path confined to one
//!   CPU (see [`crate::affinity`]). Yields the unloaded latency.
//!
//! Each function here runs **one slice** of a phase: a fixed number of
//! ops, so the state a run builds (and every count it reports) depends on
//! the seed alone, not on how fast the host was. A slice that overruns its
//! time cap — a host several times slower than the reference box — ends
//! early rather than blow the run's time budget. The run interleaves the
//! slices of its phases (`sat`, `solo`, terminal, `sat`, ...), so a
//! seconds-long spell of the host lands in a few slices of each metric,
//! which the median over slices discards.

use crate::ops::{self, Conn, Exchange, InProc, OpError, PendingRegistration, SignedRoRequest};
use crate::seams::Tracer;
use crate::stats::PhaseSamples;
use crate::world::RI_ID;
use oma_drm::{DrmAgent, RiService};
use std::collections::VecDeque;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

/// Ops attempted and failed so far, with the first few reasons.
#[derive(Debug, Default)]
pub struct Tally {
    /// Ops started.
    pub attempted: u64,
    /// Ops that did not pass the oracle (or a post-run invariant).
    pub failed: u64,
    /// The first few failure messages, for the report.
    pub errors: Vec<String>,
}

impl Tally {
    /// Counts one op and, on `Err`, one failure.
    pub fn count<T>(&mut self, outcome: Result<T, OpError>) -> Option<T> {
        self.attempted += 1;
        match outcome {
            Ok(value) => Some(value),
            Err(e) => {
                self.fail(e.0);
                None
            }
        }
    }

    /// Adds another tally's counts (and the first few of its reasons).
    pub fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        let room = 8usize.saturating_sub(self.errors.len());
        self.errors.extend(other.errors.into_iter().take(room));
    }

    /// Records a failure that is not tied to a counted op (an invariant).
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.errors.len() < 8 {
            self.errors.push(why);
        }
    }
}

/// Requests each `sat` connection keeps in flight (keep-alive traffic).
pub const SAT_DEPTH: usize = 8;

/// How long one slice may run: `ops` ops, or `cap_seconds` at the most.
#[derive(Debug, Clone, Copy)]
pub struct SliceBudget {
    /// Ops the slice runs.
    pub ops: usize,
    /// Wall time after which the slice starts no further op.
    pub cap_seconds: f64,
}

/// Times one slice and collects the latency of every op in it.
struct SliceTimer {
    started: Instant,
    cap: Duration,
    latencies_ns: Vec<f64>,
}

impl SliceTimer {
    fn start(budget: SliceBudget) -> SliceTimer {
        SliceTimer {
            started: Instant::now(),
            cap: Duration::from_secs_f64(budget.cap_seconds),
            latencies_ns: Vec::with_capacity(budget.ops),
        }
    }

    fn expired(&self) -> bool {
        self.started.elapsed() >= self.cap
    }

    fn record(&mut self, latency: Duration) {
        self.latencies_ns.push(latency.as_nanos() as f64);
    }

    fn finish(self) -> PhaseSamples {
        let wall_ns = self.started.elapsed().as_nanos() as f64;
        PhaseSamples {
            slices: vec![(self.latencies_ns.len() as u64, wall_ns)],
            latencies_ns: self.latencies_ns,
        }
    }
}

// ----- keep-alive traffic: one round trip per op -----------------------------------

/// Traffic whose op is one request frame and one checked response on a
/// long-lived connection.
pub trait Keepalive {
    /// Picks the next op: an opaque token and the request frame.
    fn next(&mut self) -> (usize, &[u8]);
    /// Checks the response to the op `token` names, received on `lane`.
    fn check(
        &mut self,
        token: usize,
        lane: usize,
        response: &[u8],
        t: &Tracer,
    ) -> Result<(), OpError>;
}

/// `RoRequest → RoResponse` over registered devices, requests pre-signed
/// in set-up so the server is the bottleneck. The Rights Issuer keeps no
/// nonce history for `RoRequest`, so the pool is cycled: each repeat is
/// verified and answered with a fresh Rights Object exactly like the first.
pub struct AcquireTraffic<'a> {
    /// The registered devices.
    pub agents: &'a mut [DrmAgent],
    /// Per device, its pre-signed requests.
    pub presigned: &'a [Vec<SignedRoRequest>],
    /// Seeded device order.
    pub order: &'a [usize],
    /// The content every request asks rights for.
    pub content_id: &'static str,
    /// Ops picked so far.
    pub cursor: usize,
    /// Every Rights Object id received (checked for duplicates afterwards).
    pub ro_ids: Vec<String>,
    /// Bytes that crossed the wire.
    pub wire_bytes: u64,
}

impl AcquireTraffic<'_> {
    fn pick(&mut self) -> (usize, usize) {
        let device = self.order[self.cursor % self.order.len()];
        let request = (self.cursor / self.order.len()) % self.presigned[device].len();
        self.cursor += 1;
        (device, request)
    }

    /// One op with one in flight. `live_sign` signs a fresh request (the
    /// traced pass, which budgets the signature) instead of using the pool.
    pub fn solo<X: Exchange>(
        &mut self,
        x: &mut X,
        live_sign: bool,
        t: &Tracer,
    ) -> Result<(), OpError> {
        let (device, request) = self.pick();
        let fresh;
        let signed = if live_sign {
            fresh = ops::sign_ro_request(&mut self.agents[device], RI_ID, self.content_id, t)?;
            &fresh
        } else {
            &self.presigned[device][request]
        };
        let (response, bytes) = ops::acquire(&self.agents[device], signed, x, t)?;
        self.wire_bytes += bytes;
        self.ro_ids.push(response.ro_id().as_str().to_string());
        Ok(())
    }
}

impl Keepalive for AcquireTraffic<'_> {
    fn next(&mut self) -> (usize, &[u8]) {
        let (device, request) = self.pick();
        (
            device * self.presigned[device].len() + request,
            &self.presigned[device][request].frame,
        )
    }

    fn check(
        &mut self,
        token: usize,
        _lane: usize,
        response: &[u8],
        t: &Tracer,
    ) -> Result<(), OpError> {
        let per_device = self.presigned[0].len();
        let (device, request) = (token / per_device, token % per_device);
        let signed = &self.presigned[device][request];
        self.wire_bytes += (signed.frame.len() + response.len()) as u64;
        let response = ops::check_ro_response(&self.agents[device], signed, response, t)?;
        self.ro_ids.push(response.ro_id().as_str().to_string());
        Ok(())
    }
}

/// `DeviceHello → RiHello`, cycling a fixed set of device ids so the
/// pending-session table stays at that size. Crypto-free.
pub struct HelloTraffic {
    /// One encoded `DeviceHello` per device id.
    pub frames: Vec<Vec<u8>>,
    /// Ops picked so far.
    pub cursor: usize,
    /// Highest session id seen per lane (ids only grow on a connection).
    pub last_session: Vec<u64>,
    /// Every session id received (checked for duplicates afterwards).
    pub session_ids: Vec<u64>,
    /// Bytes that crossed the wire.
    pub wire_bytes: u64,
}

impl HelloTraffic {
    /// Hello frames for `agents`' device ids, for up to `lanes` lanes,
    /// continuing the cycle at op number `cursor`.
    pub fn new(agents: &[DrmAgent], lanes: usize, cursor: usize) -> HelloTraffic {
        HelloTraffic {
            frames: agents
                .iter()
                .map(|a| ops::hello_frame(a.device_id()))
                .collect(),
            cursor,
            last_session: vec![0; lanes.max(1)],
            session_ids: Vec::new(),
            wire_bytes: 0,
        }
    }

    /// One op with one in flight.
    pub fn solo<X: Exchange>(&mut self, x: &mut X, t: &Tracer) -> Result<(), OpError> {
        let device = self.cursor % self.frames.len();
        self.cursor += 1;
        let (session, bytes) =
            ops::hello(&self.frames[device], x, RI_ID, &mut self.last_session[0], t)?;
        self.session_ids.push(session);
        self.wire_bytes += bytes;
        Ok(())
    }
}

impl Keepalive for HelloTraffic {
    fn next(&mut self) -> (usize, &[u8]) {
        let device = self.cursor % self.frames.len();
        self.cursor += 1;
        (device, &self.frames[device])
    }

    fn check(
        &mut self,
        token: usize,
        lane: usize,
        response: &[u8],
        _t: &Tracer,
    ) -> Result<(), OpError> {
        let hello = ops::check_ri_hello(response, RI_ID, &mut self.last_session[lane])?;
        self.session_ids.push(hello.session_id);
        self.wire_bytes += (self.frames[token].len() + response.len()) as u64;
        Ok(())
    }
}

/// One `sat` slice over keep-alive connections: a sliding window of
/// [`SAT_DEPTH`] requests per lane; every answer read is checked and
/// replaced by a fresh request until the slice's ops are all sent, then
/// the windows drain.
pub fn keepalive_sat<T: Keepalive>(
    addr: SocketAddr,
    lanes: usize,
    budget: SliceBudget,
    traffic: &mut T,
    tally: &mut Tally,
) -> PhaseSamples {
    let t = Tracer::new();
    let mut conns: Vec<Conn> = Vec::with_capacity(lanes);
    for _ in 0..lanes {
        match Conn::connect(addr) {
            Ok(conn) => conns.push(conn),
            Err(e) => {
                tally.fail(e.0);
                return PhaseSamples::default();
            }
        }
    }
    let mut windows: Vec<VecDeque<(usize, Instant)>> = vec![VecDeque::new(); lanes];
    let mut timer = SliceTimer::start(budget);
    let mut unsent = budget.ops;
    let mut refill = |conn: &mut Conn,
                      window: &mut VecDeque<(usize, Instant)>,
                      traffic: &mut T,
                      tally: &mut Tally| {
        if unsent == 0 {
            return;
        }
        unsent -= 1;
        let (token, frame) = traffic.next();
        let started = Instant::now();
        match conn.send(frame) {
            Ok(()) => window.push_back((token, started)),
            Err(e) => {
                tally.count::<()>(Err(e));
            }
        }
    };
    for _ in 0..SAT_DEPTH {
        for (conn, window) in conns.iter_mut().zip(windows.iter_mut()) {
            refill(conn, window, traffic, tally);
        }
    }
    while windows.iter().any(|w| !w.is_empty()) {
        for (lane, (conn, window)) in conns.iter_mut().zip(windows.iter_mut()).enumerate() {
            let Some((token, started)) = window.pop_front() else {
                continue;
            };
            let outcome = conn
                .recv()
                .and_then(|response| traffic.check(token, lane, &response, &t));
            let broken = outcome.is_err();
            tally.count(outcome);
            timer.record(started.elapsed());
            if broken {
                // A shed or reaped connection answers nothing further.
                for _ in window.drain(..) {
                    tally.count::<()>(Err(OpError(
                        "connection lost with the request in flight".into(),
                    )));
                }
                if let Ok(fresh) = Conn::connect(addr) {
                    *conn = fresh;
                }
            }
            if !timer.expired() {
                refill(conn, window, traffic, tally);
            }
        }
    }
    timer.finish()
}

/// One `solo` slice: `op` once at a time, `budget.ops` times (or until
/// `op` returns `None`: supply spent).
pub fn solo_phase(
    budget: SliceBudget,
    tally: &mut Tally,
    mut op: impl FnMut() -> Option<Result<(), OpError>>,
) -> PhaseSamples {
    let mut timer = SliceTimer::start(budget);
    while timer.latencies_ns.len() < budget.ops && !timer.expired() {
        let started = Instant::now();
        let Some(outcome) = op() else { break };
        tally.count(outcome);
        timer.record(started.elapsed());
    }
    timer.finish()
}

// ----- register traffic: a fresh device and a fresh connection per op -------------

/// `connect → hello → sign → register → verify → close` with a device the
/// server has never seen: every certificate misses the service's
/// verified-certificate memo, every op opens and closes a connection.
pub struct RegisterTraffic<'a> {
    /// Fresh, unregistered devices; each is used once.
    pub supply: &'a mut [DrmAgent],
    /// Devices used so far.
    pub used: usize,
    /// Bytes that crossed the wire.
    pub wire_bytes: u64,
}

impl RegisterTraffic<'_> {
    fn take(&mut self) -> Option<usize> {
        (self.used < self.supply.len()).then(|| {
            self.used += 1;
            self.used - 1
        })
    }

    /// One whole op over a fresh socket. `None` when the supply is spent.
    pub fn solo_socket(&mut self, addr: SocketAddr, t: &Tracer) -> Option<Result<(), OpError>> {
        let device = self.take()?;
        let agent = &mut self.supply[device];
        Some((|| {
            let mut conn = t.span("connect", || Conn::connect(addr))?;
            self.wire_bytes += ops::register(agent, &mut conn, RI_ID, t)?;
            t.span("close", || drop(conn));
            Ok(())
        })())
    }

    /// One whole op dispatched in-process. `None` when the supply is spent.
    pub fn solo_inproc(&mut self, service: &RiService, t: &Tracer) -> Option<Result<(), OpError>> {
        let device = self.take()?;
        let mut x = InProc::new(service);
        Some(
            ops::register(&mut self.supply[device], &mut x, RI_ID, t).map(|bytes| {
                self.wire_bytes += bytes;
            }),
        )
    }
}

struct ChurnLane {
    device: usize,
    started: Instant,
    conn: Option<Conn>,
    hello_out: usize,
    pending: Option<(PendingRegistration, usize)>,
    error: Option<OpError>,
}

/// One `sat` slice of register traffic: `lanes` connect-per-op lanes, each
/// pass of the protocol written for every lane before any answer is read.
pub fn register_sat(
    addr: SocketAddr,
    lanes: usize,
    budget: SliceBudget,
    traffic: &mut RegisterTraffic<'_>,
    tally: &mut Tally,
) -> PhaseSamples {
    let t = Tracer::new();
    let mut timer = SliceTimer::start(budget);
    let mut batch: Vec<ChurnLane> = Vec::with_capacity(lanes);
    while timer.latencies_ns.len() < budget.ops && !timer.expired() {
        batch.clear();
        // Pass 1 on every lane: connect and say hello.
        for _ in 0..lanes.min(budget.ops - timer.latencies_ns.len()) {
            let Some(device) = traffic.take() else { break };
            let started = Instant::now();
            let frame = ops::hello_frame(traffic.supply[device].device_id());
            let mut lane = ChurnLane {
                device,
                started,
                conn: None,
                hello_out: frame.len(),
                pending: None,
                error: None,
            };
            match Conn::connect(addr).and_then(|mut conn| conn.send(&frame).map(|()| conn)) {
                Ok(conn) => lane.conn = Some(conn),
                Err(e) => lane.error = Some(e),
            }
            batch.push(lane);
        }
        if batch.is_empty() {
            break;
        }
        // Pass 2 → 3: read each RiHello, sign, send the request.
        for lane in batch.iter_mut() {
            let Some(conn) = lane.conn.as_mut() else {
                continue;
            };
            let agent = &mut traffic.supply[lane.device];
            let step = conn.recv().and_then(|hello_in| {
                let hello = ops::check_ri_hello(&hello_in, RI_ID, &mut 0)?;
                let (pending, request_out) = ops::sign_registration(agent, hello, &t)?;
                conn.send(&request_out)?;
                Ok((pending, lane.hello_out + hello_in.len() + request_out.len()))
            });
            match step {
                Ok(pending) => lane.pending = Some(pending),
                Err(e) => lane.error = Some(e),
            }
        }
        // Pass 4: read each response, verify, close.
        for lane in batch.iter_mut() {
            let outcome = match (lane.error.take(), lane.conn.take(), lane.pending.take()) {
                (None, Some(mut conn), Some((pending, bytes))) => {
                    conn.recv().and_then(|response| {
                        ops::check_registration(
                            &mut traffic.supply[lane.device],
                            &pending,
                            &response,
                            &t,
                        )?;
                        traffic.wire_bytes += (bytes + response.len()) as u64;
                        Ok(())
                    })
                }
                (Some(e), _, _) => Err(e),
                _ => Err(OpError("lane lost its connection".into())),
            };
            tally.count(outcome);
            timer.record(lane.started.elapsed());
        }
    }
    timer.finish()
}
