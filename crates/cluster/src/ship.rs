//! Log shipping: the [`Primary`] reads the durable WAL through the
//! read-side API of [`RiStore`] and streams verbatim record frames to a
//! [`Follower`], which re-validates every CRC, appends the frames to its
//! own log, and replays each event into an [`RiService`] through
//! [`RiService::replay`] — the same mutation path the primary's handlers
//! and crash recovery use — so a caught-up follower holds byte-identical
//! state, RNG checkpoint included, and [`Follower::promote`] turns it into
//! a serving node whose next signature is exactly what the dead primary
//! would have produced.
//!
//! # Failover safety
//!
//! Promotion can never re-issue an RO id or a session id because both are
//! monotone counters inside the replicated state: `next_session` and the
//! per-scope `ro_sequences` arrive with the image, and the RNG checkpoint
//! of the last applied record pins the random stream. The remaining hazard
//! is a *deposed primary that does not know it is deposed* — that is what
//! the epoch fences: every `Records` batch carries the sender's epoch, a
//! follower rejects anything older than the epoch it last accepted
//! ([`ClusterError::Fenced`]), and a primary that sees a newer epoch in an
//! ack fences itself and stops acknowledging.

use crate::proto::ReplPdu;
use crate::ClusterError;
use oma_drm::journal::{RiJournal, RiStateImage};
use oma_drm::RiService;
use oma_net::ServerMetrics;
use oma_obs::{Histogram, ObsConfig};
use oma_store::{codec, MemLog, RiStore, StoreConfig, StoreError, Wal};
use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// How many record frames one `Records` PDU carries at most.
pub const MAX_BATCH_RECORDS: usize = 256;

/// Socket deadline for one replication round trip.
const REPL_DEADLINE: Duration = Duration::from_secs(30);

/// When a follower acknowledges a shipped batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AckPolicy {
    /// Acknowledge as soon as the records are applied in memory and
    /// appended; they ride the follower's own fsync cadence. Lowest
    /// latency, loses the unsynced suffix if the follower also dies.
    Async,
    /// fsync the follower's log before acknowledging: an acked record
    /// survives the loss of *either* node.
    OnFsync,
}

/// The shipping side of one replicated node: wraps the durable store of a
/// serving [`RiService`] and answers follower handshakes, heartbeats and
/// acks with the right mix of snapshot bootstrap and record batches.
///
/// `handle` is `&self` and touches only the store's read side, so a
/// replication thread can run next to live dispatch traffic.
pub struct Primary<L: Wal> {
    id: String,
    epoch: u64,
    store: Arc<RiStore<L>>,
    fenced: AtomicBool,
    metrics: Option<Arc<ServerMetrics>>,
    obs: Option<ShipObs>,
}

/// Ship→ack latency tracking: every tail shipped to the follower leaves a
/// `(last_sequence, shipped_at)` marker; the ack that covers a marker's
/// sequence closes it and the elapsed time lands in the
/// `repl_ship_ack_nanos` histogram. This replaces the single point-in-time
/// `repl_follower_lag` gauge (still kept for the metrics `Display` line)
/// with a full replication-latency distribution.
struct ShipObs {
    ship_ack_nanos: Arc<Histogram>,
    pending: Mutex<VecDeque<(u64, Instant)>>,
}

/// Markers kept in flight before the oldest is discarded: a follower that
/// never acks must not grow the primary without bound.
const MAX_PENDING_SHIPS: usize = 1024;

impl ShipObs {
    fn on_shipped(&self, last_sequence: u64) {
        let mut pending = match self.pending.lock() {
            Ok(pending) => pending,
            Err(poisoned) => poisoned.into_inner(),
        };
        if pending.len() >= MAX_PENDING_SHIPS {
            pending.pop_front();
        }
        pending.push_back((last_sequence, Instant::now()));
    }

    fn on_acked(&self, last_sequence: u64) {
        let mut pending = match self.pending.lock() {
            Ok(pending) => pending,
            Err(poisoned) => poisoned.into_inner(),
        };
        while let Some(&(sequence, shipped_at)) = pending.front() {
            if sequence > last_sequence {
                break;
            }
            pending.pop_front();
            self.ship_ack_nanos.record_duration(shipped_at.elapsed());
        }
    }
}

impl<L: Wal> Primary<L> {
    /// Wraps a serving node's store as the shipping source for `epoch`.
    pub fn new(id: &str, epoch: u64, store: Arc<RiStore<L>>) -> Self {
        Primary {
            id: id.into(),
            epoch,
            store,
            fenced: AtomicBool::new(false),
            metrics: None,
            obs: None,
        }
    }

    /// Publishes the ship→ack latency distribution as the
    /// `repl_ship_ack_nanos` histogram of `obs`'s registry. No-op when
    /// observability is off.
    pub fn with_obs(mut self, obs: &ObsConfig) -> Self {
        if let Some(obs) = obs.obs() {
            self.obs = Some(ShipObs {
                ship_ack_nanos: obs.registry().histogram("repl_ship_ack_nanos"),
                pending: Mutex::new(VecDeque::new()),
            });
        }
        self
    }

    /// Publishes shipping counters (records shipped/acked, follower lag,
    /// epoch) into a server's metrics surface.
    pub fn with_metrics(self, metrics: Arc<ServerMetrics>) -> Self {
        metrics.set_epoch(self.epoch);
        Primary {
            metrics: Some(metrics),
            ..self
        }
    }

    /// The epoch this primary serves under.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The node id.
    pub fn id(&self) -> &str {
        &self.id
    }

    /// The wrapped store.
    pub fn store(&self) -> &Arc<RiStore<L>> {
        &self.store
    }

    /// Marks this primary as deposed: every later `handle` call refuses
    /// with [`ClusterError::Fenced`], so a stale node cannot keep shipping
    /// (or acknowledging) history after a failover it has not heard about.
    pub fn fence(&self) {
        self.fenced.store(true, Ordering::Release);
    }

    /// Whether this node has been deposed.
    pub fn is_fenced(&self) -> bool {
        self.fenced.load(Ordering::Acquire)
    }

    /// Answers one follower PDU with zero or more response PDUs:
    ///
    /// * `Handshake` → `HandshakeAck` (with the snapshot blob when the
    ///   follower is behind the compaction horizon), `Records` batches for
    ///   the tail, and a closing `Heartbeat`,
    /// * `Heartbeat` → `Records` batches since the follower's position and
    ///   a closing `Heartbeat`,
    /// * `Ack` → nothing; updates the shipping metrics, and fences this
    ///   primary if the ack names a newer epoch.
    ///
    /// # Errors
    ///
    /// [`ClusterError::Fenced`] once deposed, [`ClusterError::Store`] when
    /// the log cannot be read, [`ClusterError::Malformed`] for a PDU that
    /// only a follower should send.
    pub fn handle(&self, pdu: &ReplPdu) -> Result<Vec<ReplPdu>, ClusterError> {
        if self.is_fenced() {
            return Err(ClusterError::Fenced {
                stale: self.epoch,
                current: self.epoch + 1,
            });
        }
        match pdu {
            ReplPdu::Handshake { last_sequence, .. } => {
                let (blob, watermark) = self
                    .store
                    .snapshot_blob()?
                    .ok_or(ClusterError::NotBootstrapped)?;
                // A follower below the compaction horizon needs the
                // snapshot; so does a brand-new one (sequence 0), even
                // when the primary's snapshot is still the genesis image
                // with watermark 0 — bootstrap is idempotent, so a
                // restarted follower that really is at sequence 0 just
                // re-installs the same state.
                let behind = *last_sequence < watermark || *last_sequence == 0;
                let mut responses = vec![ReplPdu::HandshakeAck {
                    epoch: self.epoch,
                    primary_id: self.id.clone(),
                    watermark,
                    snapshot: behind.then_some(blob),
                }];
                let start = if behind { watermark } else { *last_sequence };
                self.push_tail(start, &mut responses)?;
                Ok(responses)
            }
            ReplPdu::Heartbeat { last_sequence, .. } => {
                let mut responses = Vec::new();
                self.push_tail(*last_sequence, &mut responses)?;
                Ok(responses)
            }
            ReplPdu::Ack {
                epoch,
                last_sequence,
                applied,
                ..
            } => {
                if *epoch > self.epoch {
                    self.fence();
                    return Err(ClusterError::Fenced {
                        stale: self.epoch,
                        current: *epoch,
                    });
                }
                if let Some(metrics) = &self.metrics {
                    metrics.on_records_acked(*applied);
                    let head = self.store.next_sequence().saturating_sub(1);
                    metrics.set_follower_lag(head.saturating_sub(*last_sequence));
                }
                if let Some(obs) = &self.obs {
                    obs.on_acked(*last_sequence);
                }
                Ok(Vec::new())
            }
            ReplPdu::HandshakeAck { .. } | ReplPdu::Records { .. } => Err(ClusterError::Malformed(
                "primary received a primary-side pdu".into(),
            )),
        }
    }

    /// Appends the record tail after `start` as `Records` batches plus a
    /// closing `Heartbeat`.
    fn push_tail(&self, start: u64, responses: &mut Vec<ReplPdu>) -> Result<(), ClusterError> {
        let tail = self.store.records_after(start)?;
        let shipped = tail.frames.len() as u64;
        for chunk in tail.frames.chunks(MAX_BATCH_RECORDS) {
            responses.push(ReplPdu::Records {
                epoch: self.epoch,
                frames: chunk.to_vec(),
            });
        }
        responses.push(ReplPdu::Heartbeat {
            epoch: self.epoch,
            last_sequence: tail.last_sequence,
        });
        if let Some(metrics) = &self.metrics {
            metrics.on_records_shipped(shipped);
        }
        if shipped > 0 {
            if let Some(obs) = &self.obs {
                obs.on_shipped(tail.last_sequence);
            }
        }
        Ok(())
    }
}

/// The receiving side: owns its own [`Wal`] backend, appends shipped
/// frames verbatim, and replays every event into an unjournaled
/// [`RiService`] kept promotion-ready.
pub struct Follower<L: Wal> {
    id: String,
    log: L,
    config: StoreConfig,
    ack_policy: AckPolicy,
    service: Option<RiService>,
    last_sequence: u64,
    epoch: u64,
    segment_bytes: u64,
}

impl Follower<MemLog> {
    /// An in-memory follower — the deterministic test and harness backend.
    pub fn in_memory(id: &str, ack_policy: AckPolicy) -> Self {
        Self::new(id, MemLog::new(), StoreConfig::default(), ack_policy)
            .expect("memory log cannot fail to open")
    }
}

impl<L: Wal> Follower<L> {
    /// Wraps a log backend. A log that already holds a snapshot (a
    /// restarted follower) resumes from snapshot + surviving records
    /// through the same [`RiStore`] open-and-recover path a crashed primary
    /// takes — which also fences a torn tail, so shipped frames are never
    /// appended behind garbage; a fresh log waits for the handshake to
    /// bootstrap it.
    ///
    /// # Errors
    ///
    /// [`ClusterError::Store`] when the backend cannot be read or its
    /// snapshot fails validation.
    pub fn new(
        id: &str,
        log: L,
        config: StoreConfig,
        ack_policy: AckPolicy,
    ) -> Result<Self, ClusterError> {
        let (service, last_sequence) = match RiStore::new(&log, config)?.load_with_report() {
            Ok((service, report)) => (Some(service), report.last_sequence),
            Err(StoreError::NoGenesis) => (None, 0),
            Err(e) => return Err(e.into()),
        };
        let segment_bytes = log.segment_len()?;
        Ok(Follower {
            id: id.into(),
            log,
            config,
            ack_policy,
            service,
            last_sequence,
            epoch: 0,
            segment_bytes,
        })
    }

    /// The handshake announcing this follower's position.
    pub fn handshake(&self) -> ReplPdu {
        ReplPdu::Handshake {
            follower_id: self.id.clone(),
            last_sequence: self.last_sequence,
        }
    }

    /// Sequence number of the last applied record.
    pub fn last_sequence(&self) -> u64 {
        self.last_sequence
    }

    /// The epoch this follower last accepted.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// A snapshot of the replicated state, once bootstrapped.
    pub fn state_image(&self) -> Option<RiStateImage> {
        self.service.as_ref().map(RiService::state_image)
    }

    /// Applies one primary PDU.
    ///
    /// Returns the `Ack` to send back for a `Records` batch, `None` for
    /// the session-control PDUs.
    ///
    /// # Errors
    ///
    /// [`ClusterError::Fenced`] for a stale epoch,
    /// [`ClusterError::SequenceGap`] when a batch does not continue this
    /// follower's history, [`ClusterError::Store`]/[`ClusterError::Malformed`]
    /// for invalid frames.
    pub fn apply(&mut self, pdu: &ReplPdu) -> Result<Option<ReplPdu>, ClusterError> {
        match pdu {
            ReplPdu::HandshakeAck {
                epoch,
                watermark,
                snapshot,
                ..
            } => {
                self.adopt_epoch(*epoch)?;
                if let Some(blob) = snapshot {
                    self.bootstrap(blob, *watermark)?;
                } else if self.service.is_none() {
                    return Err(ClusterError::NotBootstrapped);
                }
                Ok(None)
            }
            ReplPdu::Records { epoch, frames } => {
                self.adopt_epoch(*epoch)?;
                let ack = self.apply_records(frames)?;
                Ok(Some(ack))
            }
            ReplPdu::Heartbeat { epoch, .. } => {
                self.adopt_epoch(*epoch)?;
                Ok(None)
            }
            ReplPdu::Handshake { .. } | ReplPdu::Ack { .. } => Err(ClusterError::Malformed(
                "follower received a follower-side pdu".into(),
            )),
        }
    }

    /// Fencing rule: accept the sender's epoch when it is current or
    /// newer; refuse anything older.
    fn adopt_epoch(&mut self, epoch: u64) -> Result<(), ClusterError> {
        if epoch < self.epoch {
            return Err(ClusterError::Fenced {
                stale: epoch,
                current: self.epoch,
            });
        }
        self.epoch = epoch;
        Ok(())
    }

    /// Installs a snapshot blob: writes it to the local log, drops any
    /// stale segments it covers, and rebuilds the replayed service from it —
    /// the same compaction dance [`RiStore::snapshot`](oma_store::RiStore)
    /// performs.
    fn bootstrap(&mut self, blob: &[u8], watermark: u64) -> Result<(), ClusterError> {
        let (image, snapshot_watermark) = codec::decode_snapshot(blob)?;
        if snapshot_watermark != watermark {
            return Err(ClusterError::Malformed(
                "handshake watermark disagrees with its snapshot".into(),
            ));
        }
        self.log.write_snapshot(blob)?;
        let fresh = self.log.rotate()?;
        self.log.remove_segments_before(fresh)?;
        self.segment_bytes = self.log.segment_len()?;
        self.service = Some(RiService::from_image(image));
        self.last_sequence = watermark;
        Ok(())
    }

    /// Validates and applies one batch of record frames.
    fn apply_records(&mut self, frames: &[Vec<u8>]) -> Result<ReplPdu, ClusterError> {
        let service = self.service.as_ref().ok_or(ClusterError::NotBootstrapped)?;
        let mut applied = 0;
        for frame in frames {
            let (record, consumed) =
                codec::decode_record_prefix(frame).map_err(ClusterError::Store)?;
            if consumed != frame.len() {
                return Err(ClusterError::Malformed(
                    "record frame carries trailing bytes".into(),
                ));
            }
            if record.sequence <= self.last_sequence {
                // A re-shipped prefix (retry after a lost ack) is harmless.
                continue;
            }
            if record.sequence != self.last_sequence + 1 {
                return Err(ClusterError::SequenceGap {
                    expected: self.last_sequence + 1,
                    found: record.sequence,
                });
            }
            if self.segment_bytes + frame.len() as u64 > self.config.segment_max_bytes {
                self.log.rotate()?;
                self.segment_bytes = self.log.segment_len()?;
            }
            self.log.append(frame)?;
            self.segment_bytes += frame.len() as u64;
            service.replay(&record.event, record.rng_after);
            self.last_sequence = record.sequence;
            applied += 1;
        }
        let durable = match self.ack_policy {
            AckPolicy::OnFsync => {
                self.log.sync()?;
                true
            }
            AckPolicy::Async => false,
        };
        Ok(ReplPdu::Ack {
            epoch: self.epoch,
            last_sequence: self.last_sequence,
            applied,
            durable,
        })
    }

    /// Promotes this follower into a serving primary under `new_epoch`.
    ///
    /// The follower's log is synced and re-opened as a [`RiStore`], the
    /// service is recovered through the very same snapshot+replay path a
    /// crash restart uses, and its state is cross-checked against the
    /// incrementally replayed service — any divergence refuses promotion
    /// instead of serving forked state. The recovered state carries
    /// `next_session`, every `ro_sequences` counter and the RNG
    /// checkpoint, which is why a promoted primary can never re-issue a
    /// session id or an RO id that the old primary already handed out.
    ///
    /// # Errors
    ///
    /// [`ClusterError::NotBootstrapped`] before any handshake,
    /// [`ClusterError::Store`] when the log cannot be re-opened,
    /// [`ClusterError::Malformed`] when the durable and replayed states
    /// disagree.
    pub fn promote(self, new_epoch: u64) -> Result<Promoted<L>, ClusterError>
    where
        L: 'static,
    {
        let replayed = self.service.ok_or(ClusterError::NotBootstrapped)?;
        self.log.sync()?;
        let store = RiStore::new(self.log, self.config)?;
        let (service, _report) = store.load_with_report()?;
        let image = service.state_image();
        if image != replayed.state_image() {
            return Err(ClusterError::Malformed(
                "durable state diverged from the replayed state; refusing promotion".into(),
            ));
        }
        let store = Arc::new(store);
        let service = Arc::new(service);
        service.set_journal(Arc::clone(&store) as Arc<dyn RiJournal>);
        Ok(Promoted {
            service,
            store,
            epoch: new_epoch,
            image,
        })
    }
}

/// What [`Follower::promote`] yields: a serving node journaling into the
/// follower's log, under the next epoch.
pub struct Promoted<L: Wal> {
    /// The promoted service, journal already attached.
    pub service: Arc<RiService>,
    /// The store the service journals through (the follower's log).
    pub store: Arc<RiStore<L>>,
    /// The epoch the new primary serves under.
    pub epoch: u64,
    /// The recovered state at promotion — byte-identical to the deposed
    /// primary's durable state.
    pub image: RiStateImage,
}

/// One in-process catch-up round: handshake, snapshot bootstrap if needed,
/// every outstanding record, acks observed. Returns how many records the
/// follower applied.
///
/// # Errors
///
/// Everything [`Primary::handle`] and [`Follower::apply`] can raise.
pub fn replicate<P: Wal, F: Wal>(
    primary: &Primary<P>,
    follower: &mut Follower<F>,
) -> Result<u64, ClusterError> {
    let mut applied = 0;
    for response in primary.handle(&follower.handshake())? {
        if let Some(ack) = follower.apply(&response)? {
            if let ReplPdu::Ack { applied: batch, .. } = ack {
                applied += batch;
            }
            primary.handle(&ack)?;
        }
    }
    Ok(applied)
}

// ----- replication over TCP --------------------------------------------------

/// Reads one replication frame, reassembling partial reads. `Ok(None)` on
/// a clean disconnect at a frame boundary.
fn read_repl_frame<R: Read>(reader: &mut R) -> Result<Option<Vec<u8>>, ClusterError> {
    let mut frame = vec![0u8; crate::proto::REPL_HEADER_LEN];
    let mut filled = 0;
    while filled < frame.len() {
        match reader.read(&mut frame[filled..]) {
            Ok(0) if filled == 0 => return Ok(None),
            Ok(0) => return Err(ClusterError::Io("peer died mid-frame".into())),
            Ok(n) => filled += n,
            Err(e) => return Err(ClusterError::Io(format!("read frame header: {e}"))),
        }
    }
    let total = ReplPdu::frame_len(&frame)?.expect("complete header yields a length");
    frame.resize(total, 0);
    reader
        .read_exact(&mut frame[crate::proto::REPL_HEADER_LEN..])
        .map_err(|e| ClusterError::Io(format!("read frame body: {e}")))?;
    Ok(Some(frame))
}

fn write_pdu(stream: &mut TcpStream, pdu: &ReplPdu) -> Result<(), ClusterError> {
    stream
        .write_all(&pdu.encode())
        .map_err(|e| ClusterError::Io(format!("write frame: {e}")))
}

/// Serves one follower connection on a primary: answers its PDUs until the
/// peer disconnects.
///
/// # Errors
///
/// Socket failures as [`ClusterError::Io`]; protocol violations and
/// fencing from [`Primary::handle`].
pub fn serve_replication<L: Wal>(
    primary: &Primary<L>,
    mut stream: TcpStream,
) -> Result<(), ClusterError> {
    stream
        .set_read_timeout(Some(REPL_DEADLINE))
        .and_then(|()| stream.set_write_timeout(Some(REPL_DEADLINE)))
        .map_err(|e| ClusterError::Io(format!("set deadline: {e}")))?;
    while let Some(frame) = read_repl_frame(&mut stream)? {
        for response in primary.handle(&ReplPdu::decode(&frame)?)? {
            write_pdu(&mut stream, &response)?;
        }
    }
    Ok(())
}

/// One catch-up round over TCP: connects to a primary's replication
/// endpoint, handshakes, applies the snapshot and/or record tail, acks,
/// and disconnects at the primary's end-of-catch-up heartbeat. Returns how
/// many records were applied.
///
/// # Errors
///
/// Socket failures as [`ClusterError::Io`]; everything
/// [`Follower::apply`] can raise.
pub fn sync_over_tcp<F: Wal>(
    follower: &mut Follower<F>,
    addr: impl ToSocketAddrs,
) -> Result<u64, ClusterError> {
    let mut stream =
        TcpStream::connect(addr).map_err(|e| ClusterError::Io(format!("connect: {e}")))?;
    stream
        .set_nodelay(true)
        .and_then(|()| stream.set_read_timeout(Some(REPL_DEADLINE)))
        .and_then(|()| stream.set_write_timeout(Some(REPL_DEADLINE)))
        .map_err(|e| ClusterError::Io(format!("configure socket: {e}")))?;
    write_pdu(&mut stream, &follower.handshake())?;
    let mut applied = 0;
    loop {
        let Some(frame) = read_repl_frame(&mut stream)? else {
            return Err(ClusterError::Io("primary hung up mid-catch-up".into()));
        };
        let pdu = ReplPdu::decode(&frame)?;
        let done = matches!(pdu, ReplPdu::Heartbeat { .. });
        if let Some(ack) = follower.apply(&pdu)? {
            if let ReplPdu::Ack { applied: batch, .. } = ack {
                applied += batch;
            }
            write_pdu(&mut stream, &ack)?;
        }
        if done {
            return Ok(applied);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oma_drm::roap::DeviceHello;
    use oma_pki::{CertificationAuthority, Timestamp};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::net::TcpListener;

    /// A journaled serving primary with a genesis snapshot — the world
    /// every test replicates from.
    fn primary_world() -> (Arc<RiService>, Primary<MemLog>) {
        let mut rng = StdRng::seed_from_u64(0x5109);
        let mut ca = CertificationAuthority::new("cmla", 384, &mut rng);
        let service = Arc::new(RiService::new("ri.a", 384, &mut ca, &mut rng));
        let store = Arc::new(RiStore::in_memory());
        service.set_journal(Arc::clone(&store) as Arc<dyn RiJournal>);
        store.snapshot(&|| service.state_image()).unwrap();
        (service, Primary::new("node.a", 1, store))
    }

    fn say_hello(service: &RiService, n: usize) {
        for i in 0..n {
            service.hello_at(&DeviceHello::new(&format!("dev-{i:03}")), Timestamp::new(0));
        }
    }

    #[test]
    fn replicate_reaches_byte_identical_state_incrementally() {
        let (service, primary) = primary_world();
        say_hello(&service, 5);
        service.create_domain("family", 4);

        let mut follower = Follower::in_memory("node.b", AckPolicy::OnFsync);
        let applied = replicate(&primary, &mut follower).unwrap();
        assert_eq!(applied, 6);
        assert_eq!(follower.state_image(), Some(service.state_image()));
        assert_eq!(follower.epoch(), 1);

        // More traffic, another round: only the tail ships, state stays
        // identical — RNG checkpoint included.
        say_hello(&service, 3);
        let applied = replicate(&primary, &mut follower).unwrap();
        assert_eq!(applied, 3);
        assert_eq!(follower.state_image(), Some(service.state_image()));
    }

    #[test]
    fn ack_policy_controls_the_durable_flag() {
        for (policy, durable) in [(AckPolicy::Async, false), (AckPolicy::OnFsync, true)] {
            let (service, primary) = primary_world();
            say_hello(&service, 2);
            let mut follower = Follower::in_memory("node.b", policy);
            let responses = primary.handle(&follower.handshake()).unwrap();
            let mut acked = 0;
            for response in responses {
                if let Some(ReplPdu::Ack { durable: got, .. }) = follower.apply(&response).unwrap()
                {
                    assert_eq!(got, durable);
                    acked += 1;
                }
            }
            assert!(acked > 0, "records must have shipped");
        }
    }

    #[test]
    fn ship_ack_latency_lands_in_the_histogram() {
        let (service, primary) = primary_world();
        let obs = oma_obs::Obs::new();
        let primary = primary.with_obs(&ObsConfig::On(Arc::clone(&obs)));
        say_hello(&service, 4);

        let mut follower = Follower::in_memory("node.b", AckPolicy::Async);
        let applied = replicate(&primary, &mut follower).unwrap();
        assert!(applied > 0);

        let hist = obs
            .registry()
            .find_histogram("repl_ship_ack_nanos")
            .expect("with_obs registers the histogram");
        let snap = hist.snapshot();
        // One sample per acked shipped tail: the handshake round ships one
        // tail and the follower acks it once.
        assert!(snap.count() >= 1, "ack must close a shipped marker");

        // Acking again past the head records nothing new (no open marker).
        let before = hist.snapshot().count();
        primary
            .handle(&ReplPdu::Ack {
                epoch: 1,
                last_sequence: follower.last_sequence(),
                applied: 0,
                durable: false,
            })
            .unwrap();
        assert_eq!(hist.snapshot().count(), before);
    }

    #[test]
    fn stale_epoch_records_are_fenced() {
        let (service, primary) = primary_world();
        say_hello(&service, 1);
        let mut follower = Follower::in_memory("node.b", AckPolicy::Async);
        replicate(&primary, &mut follower).unwrap();

        // The follower hears about epoch 3, then the epoch-1 primary tries
        // to keep shipping: refused.
        follower
            .apply(&ReplPdu::Heartbeat {
                epoch: 3,
                last_sequence: follower.last_sequence(),
            })
            .unwrap();
        say_hello(&service, 1);
        let responses = primary.handle(&follower.handshake()).unwrap();
        let records = responses
            .iter()
            .find(|r| matches!(r, ReplPdu::Records { .. }))
            .expect("tail must ship");
        assert_eq!(
            follower.apply(records),
            Err(ClusterError::Fenced {
                stale: 1,
                current: 3
            })
        );
    }

    #[test]
    fn newer_epoch_in_an_ack_fences_the_primary() {
        let (_service, primary) = primary_world();
        let err = primary
            .handle(&ReplPdu::Ack {
                epoch: 7,
                last_sequence: 0,
                applied: 0,
                durable: true,
            })
            .unwrap_err();
        assert!(matches!(
            err,
            ClusterError::Fenced {
                stale: 1,
                current: 7
            }
        ));
        assert!(primary.is_fenced());
        // Once deposed, nothing is served anymore.
        let handshake = Follower::in_memory("node.b", AckPolicy::Async).handshake();
        assert!(matches!(
            primary.handle(&handshake),
            Err(ClusterError::Fenced { .. })
        ));
    }

    #[test]
    fn catch_up_crosses_the_compaction_horizon() {
        let (service, primary) = primary_world();
        say_hello(&service, 4);
        // Compaction: snapshot covers the 4 hellos, old segments go away.
        primary.store().snapshot(&|| service.state_image()).unwrap();
        say_hello(&service, 2);

        // A brand-new follower can still catch up: snapshot + 2-record tail.
        let mut follower = Follower::in_memory("node.b", AckPolicy::OnFsync);
        let applied = replicate(&primary, &mut follower).unwrap();
        assert_eq!(applied, 2, "only the post-snapshot tail ships as records");
        assert_eq!(follower.state_image(), Some(service.state_image()));
    }

    #[test]
    fn sequence_gaps_are_rejected() {
        let (service, primary) = primary_world();
        say_hello(&service, 3);
        let mut follower = Follower::in_memory("node.b", AckPolicy::Async);
        // Bootstrap only (snapshot at watermark 0), then feed a batch that
        // skips the first record.
        let responses = primary.handle(&follower.handshake()).unwrap();
        follower.apply(&responses[0]).unwrap();
        let ReplPdu::Records { epoch, frames } = &responses[1] else {
            panic!("expected the record tail");
        };
        let gapped = ReplPdu::Records {
            epoch: *epoch,
            frames: frames[1..].to_vec(),
        };
        assert_eq!(
            follower.apply(&gapped),
            Err(ClusterError::SequenceGap {
                expected: 1,
                found: 2
            })
        );
    }

    #[test]
    fn promotion_recovers_byte_identical_state_and_keeps_counting() {
        let (service, primary) = primary_world();
        say_hello(&service, 4);
        let sessions_before = service.pending_session_count();
        let image_before = service.state_image();

        let mut follower = Follower::in_memory("node.b", AckPolicy::OnFsync);
        replicate(&primary, &mut follower).unwrap();
        primary.fence();
        let promoted = follower.promote(2).unwrap();

        assert_eq!(promoted.epoch, 2);
        assert_eq!(promoted.image, image_before, "byte-identical state");
        // The promoted node keeps journaling and never reuses a session id:
        // the next hello continues the deposed primary's counter.
        let hello = promoted
            .service
            .hello_at(&DeviceHello::new("dev-next"), Timestamp::new(0));
        assert_eq!(hello.session_id as usize, sessions_before + 1);
        assert_eq!(
            promoted.store.next_sequence(),
            5 + 1,
            "promoted store appends after the replicated tail"
        );
    }

    #[test]
    fn follower_restart_resumes_from_its_own_log() {
        let (service, primary) = primary_world();
        say_hello(&service, 3);

        // First life: catch up, then "crash" — keep only the log bytes.
        let mut follower = Follower::in_memory("node.b", AckPolicy::OnFsync);
        replicate(&primary, &mut follower).unwrap();
        let log = MemLog::new();
        log.write_snapshot(&primary.store().log().read_snapshot().unwrap().unwrap())
            .unwrap();
        for (index, bytes) in primary.store().log().raw_segments() {
            while log.current_segment() < index {
                log.rotate().unwrap();
            }
            log.mutate_segment(index, |segment| *segment = bytes.clone());
        }

        // Second life over the surviving bytes: resumes at the right
        // sequence, and a sync round ships nothing new.
        let mut reborn =
            Follower::new("node.b", log, StoreConfig::default(), AckPolicy::OnFsync).unwrap();
        assert_eq!(reborn.last_sequence(), 3);
        assert_eq!(reborn.state_image(), Some(service.state_image()));
        assert_eq!(replicate(&primary, &mut reborn).unwrap(), 0);
    }

    #[test]
    fn replication_metrics_are_published() {
        let (service, primary) = primary_world();
        let metrics = Arc::new(ServerMetrics::default());
        let primary = primary.with_metrics(Arc::clone(&metrics));
        say_hello(&service, 4);
        let mut follower = Follower::in_memory("node.b", AckPolicy::OnFsync);
        replicate(&primary, &mut follower).unwrap();

        let snapshot = metrics.snapshot();
        assert_eq!(snapshot.records_shipped, 4);
        assert_eq!(snapshot.records_acked, 4);
        assert_eq!(snapshot.follower_lag, 0);
        assert_eq!(snapshot.epoch, 1);
    }

    #[test]
    fn tcp_pair_ships_the_stream() {
        let (service, primary) = primary_world();
        say_hello(&service, 5);
        let expected = service.state_image();

        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            serve_replication(&primary, stream)
        });

        let mut follower = Follower::in_memory("node.b", AckPolicy::OnFsync);
        let applied = sync_over_tcp(&mut follower, addr).unwrap();
        assert_eq!(applied, 5);
        assert_eq!(follower.state_image(), Some(expected));
        server.join().unwrap().unwrap();
    }
}
