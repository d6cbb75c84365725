//! Durable Rights Issuer storage: a write-ahead log plus full-state
//! snapshots, with crash recovery that rebuilds the service byte-for-byte.
//!
//! The paper's Rights Issuer holds the whole trust fabric in server state —
//! which devices registered, which Rights Object ids were consumed, which
//! nonces are outstanding. `oma-store` makes that state survive power loss:
//!
//! * every mutation [`RiService`] performs is appended to a CRC-framed,
//!   length-prefixed log record ([`codec`]) *before* the response leaves
//!   the service,
//! * periodic [`snapshots`](RiStore::snapshot) capture the complete state
//!   (RSA identity and the engine's random-stream checkpoint included) and
//!   compact the segments they cover,
//! * [`RiService::recover`] replays snapshot + surviving records into a
//!   serving instance whose *next* signature is byte-identical to what an
//!   uninterrupted run would have produced,
//! * a torn or bit-flipped tail is detected by the CRC and recovery stops
//!   cleanly at the last valid record — it never panics.
//!
//! The log backends ([`MemLog`] in memory, [`FileLog`] on disk) share one
//! byte format, so the deterministic corruption corpus exercises exactly
//! the bytes a production directory would hold. No response leaves before
//! the records it depends on are synced ([`FsyncPolicy::Always`]): a record
//! is synced by its own handler, or — inside a
//! [`deferred`](oma_drm::journal::deferred) scope such as one readiness
//! batch of the event loop — by the one barrier
//! ([`RiJournal::flush`]) the whole batch shares (group commit).
//!
//! # Recover and serve
//!
//! Restarting a durable server is three lines — open the store, recover the
//! service, serve (the TCP server journals through the store and snapshots
//! on graceful shutdown):
//!
//! ```
//! # use oma_drm::{DrmAgent, RiService, RoapClient};
//! # use oma_net::{RoapEventServer, ServerConfig, TcpTransport};
//! # use oma_pki::{CertificationAuthority, Timestamp};
//! # use oma_store::{RiStore, StoreConfig};
//! # use oma_drm::journal::RiJournal;
//! # use rand::SeedableRng;
//! # use std::sync::Arc;
//! # fn main() -> Result<(), oma_drm::DrmError> {
//! # let dir = std::env::temp_dir().join(format!("oma-store-doc-{}", std::process::id()));
//! # let _ = std::fs::remove_dir_all(&dir);
//! # let now = Timestamp::new(1_000);
//! # { // First boot: genesis snapshot, one registration, graceful shutdown.
//! #     let mut rng = rand::rngs::StdRng::seed_from_u64(7);
//! #     let mut ca = CertificationAuthority::new("cmla", 384, &mut rng);
//! #     let service = Arc::new(RiService::new("ri.example.com", 384, &mut ca, &mut rng));
//! #     let store = Arc::new(RiStore::open_dir(&dir, StoreConfig::default())?);
//! #     service.set_journal(Arc::clone(&store) as Arc<dyn RiJournal>);
//! #     service.snapshot_to(&*store)?;
//! #     let mut agent = DrmAgent::new("phone-001", 384, &mut ca, &mut rng);
//! #     agent.register(&RoapClient::in_proc(&service), now)?;
//! #     store.flush()?;
//! # }
//! let store = Arc::new(RiStore::open_dir(&dir, StoreConfig::default())?);
//! let service = Arc::new(RiService::recover(&store)?);
//! let server = RoapEventServer::bind(
//!     Arc::clone(&service),
//!     ServerConfig::durable(store).with_clock(now),
//! )?;
//! # assert!(service.is_registered("phone-001"), "state survived the restart");
//! # server.shutdown();
//! # std::fs::remove_dir_all(&dir).ok();
//! # Ok(()) }
//! ```
//!
//! [`RiService`]: oma_drm::RiService
//! [`RiService::recover`]: oma_drm::RiService::recover

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod codec;
pub mod log;

use codec::Record;
pub use log::{FileLog, MemLog, Wal};
use oma_drm::journal::{sync_deferred, RiEvent, RiJournal, RiStateImage, StateSource};
use oma_drm::{DrmError, RiService};
use oma_obs::{Histogram, ObsConfig};
use std::error::Error;
use std::fmt;
use std::path::Path;
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Errors of the durable store.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum StoreError {
    /// The backend failed to move bytes (disk full, permission, ...).
    Io(String),
    /// Stored bytes failed validation (CRC mismatch, bad framing, ...).
    Corrupt(String),
    /// A record exceeded [`codec::MAX_RECORD_LEN`] and was refused: no
    /// decoder would accept it, so appending it would silently cut off all
    /// later history at the next recovery.
    RecordTooLarge(usize),
    /// No genesis snapshot exists; events alone cannot rebuild a service
    /// identity.
    NoGenesis,
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io(reason) => write!(f, "log i/o failure: {reason}"),
            StoreError::Corrupt(reason) => write!(f, "corrupt log data: {reason}"),
            StoreError::RecordTooLarge(size) => {
                write!(
                    f,
                    "journal record of {size} bytes exceeds the decodable cap"
                )
            }
            StoreError::NoGenesis => write!(f, "no genesis snapshot in store"),
        }
    }
}

impl Error for StoreError {}

impl From<StoreError> for DrmError {
    fn from(e: StoreError) -> Self {
        DrmError::Store(e.to_string())
    }
}

/// When appended records are forced onto durable media.
///
/// One policy: a power loss never undoes a response a peer holds. A record
/// is synced before the handler that recorded it returns — unless the
/// handler ran inside a [`deferred`](oma_drm::journal::deferred) scope.
/// Then the scope's owner runs one barrier ([`RiJournal::flush`]) for every
/// record the scope appended before it releases any of its responses. The
/// event loop opens one scope per readiness batch (group commit), so a
/// pipelined batch shares one sync; in-process clients, direct dispatch
/// and the shutdown drain keep one sync per record. A barrier over a batch
/// that appended nothing syncs nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// Every record is synced before a response that depends on it
    /// leaves — by its handler, or by its deferred scope's barrier.
    Always,
}

/// Tuning knobs of a [`RiStore`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoreConfig {
    /// Durability policy for appended records.
    pub fsync: FsyncPolicy,
    /// Segment size at which the log rotates to a fresh segment file.
    /// Rotation never splits a record.
    pub segment_max_bytes: u64,
}

impl Default for StoreConfig {
    fn default() -> Self {
        StoreConfig {
            fsync: FsyncPolicy::Always,
            segment_max_bytes: 4 << 20,
        }
    }
}

/// What recovery found in the store.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Journal records replayed on top of the snapshot.
    pub events_applied: u64,
    /// Sequence number of the last surviving record (the snapshot's
    /// coverage watermark when no record survived).
    pub last_sequence: u64,
    /// Why the scan stopped before the physical end of the log, if it did —
    /// a torn tail, a CRC mismatch, a broken segment. `None` means the log
    /// was clean to the end.
    pub stopped_early: Option<String>,
}

struct Appender {
    next_sequence: u64,
    segment_bytes: u64,
    /// Whether bytes were appended since the last sync — what makes a
    /// barrier over a batch that journaled nothing free.
    unsynced: bool,
    fault: Option<StoreError>,
}

/// The valid log tail after a watermark, as raw record frames — what a
/// replication primary ships to a follower (see [`RiStore::records_after`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecordTail {
    /// One framed record per entry (CRC header included), in sequence
    /// order — each is exactly the byte string [`codec::decode_record_prefix`]
    /// accepts, so a follower can validate and append them verbatim.
    pub frames: Vec<Vec<u8>>,
    /// Sequence number of the last frame (the watermark when `frames` is
    /// empty).
    pub last_sequence: u64,
    /// Why the scan stopped before the physical end of the log, if it did —
    /// the same torn-tail / gap reporting as [`RecoveryReport`].
    pub stopped_early: Option<String>,
}

/// The durable Rights Issuer store: a write-ahead log with snapshots over
/// any [`Wal`] backend.
///
/// `RiStore` implements [`RiJournal`], so it plugs straight into
/// [`RiService::set_journal`](oma_drm::RiService::set_journal), and
/// [`StateSource`], so [`RiService::recover`](oma_drm::RiService::recover)
/// can rebuild a service from it.
///
/// # Fault latching
///
/// [`RiJournal::record`] cannot return an error into the middle of a ROAP
/// handler, so the first backend failure is *latched*: later appends are
/// dropped, and the fault surfaces from [`RiStore::flush`],
/// [`RiStore::snapshot`] and [`RiStore::fault`]. A server should treat a
/// latched fault as "durability lost since that point" and stop
/// acknowledging work it cannot persist.
pub struct RiStore<L: Wal> {
    log: L,
    config: StoreConfig,
    appender: Mutex<Appender>,
    obs: OnceLock<StoreObs>,
}

/// Pre-resolved observability handles: the WAL's three latency
/// histograms. Installed once via [`RiStore::set_obs`]; every write-path
/// site then costs one lock-free `OnceLock` read (an `Option` check when
/// observability is off).
struct StoreObs {
    append_nanos: Arc<Histogram>,
    fsync_nanos: Arc<Histogram>,
    snapshot_nanos: Arc<Histogram>,
}

impl RiStore<MemLog> {
    /// An in-memory store with default config — the deterministic test
    /// backend.
    pub fn in_memory() -> Self {
        Self::new(MemLog::new(), StoreConfig::default()).expect("memory log cannot fail to open")
    }

    /// An in-memory store with explicit config.
    pub fn in_memory_with(config: StoreConfig) -> Self {
        Self::new(MemLog::new(), config).expect("memory log cannot fail to open")
    }
}

impl RiStore<FileLog> {
    /// Opens (or creates) a store in a directory. Appending resumes after
    /// the last valid record; a torn tail left by a crash is fenced off by
    /// rotating to a fresh segment.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] when the directory cannot be opened.
    pub fn open_dir(dir: impl AsRef<Path>, config: StoreConfig) -> Result<Self, StoreError> {
        Self::new(FileLog::open(dir)?, config)
    }
}

impl<L: Wal> RiStore<L> {
    /// Wraps a log backend. Scans existing segments to find where the valid
    /// log ends: appending resumes at the next sequence number, and if the
    /// scan stopped early (torn tail) the log rotates so new records never
    /// sit behind garbage.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] when the backend cannot be scanned, and
    /// [`StoreError::Corrupt`] when an existing snapshot fails validation —
    /// a store that can never recover must refuse to open and accept more
    /// appends, not fail silently at the *next* recovery.
    pub fn new(log: L, config: StoreConfig) -> Result<Self, StoreError> {
        let snapshot_watermark = match log.read_snapshot()? {
            Some(bytes) => Some(codec::decode_snapshot(&bytes)?.1),
            None => None,
        };
        let mut last_sequence = snapshot_watermark.unwrap_or(0);
        for segment in log.segments()? {
            let bytes = log.read_segment(segment)?;
            let scan = scan_segment(&bytes, &mut |record, _| {
                last_sequence = last_sequence.max(record.sequence);
            });
            if scan.error.is_some() {
                if scan.valid_len == 0 {
                    // The segment header itself is unreadable: nothing in
                    // this segment (or after it) can be trusted; recovery
                    // will stop here too. Fence by rotating past it.
                    log.rotate()?;
                    break;
                }
                // Torn tail (a crash mid-append): amputate the garbage so
                // records appended from now on — and recovery's scan —
                // never sit behind it, then keep scanning later segments
                // (an earlier reopen may already have continued there).
                log.truncate_segment(segment, scan.valid_len as u64)?;
            }
        }
        let segment_bytes = log.segment_len()?;
        Ok(RiStore {
            log,
            config,
            appender: Mutex::new(Appender {
                next_sequence: last_sequence + 1,
                segment_bytes,
                // A previous owner may have left appended bytes unsynced (a
                // crash, not a power loss): the first barrier syncs them.
                unsynced: true,
                fault: None,
            }),
            obs: OnceLock::new(),
        })
    }

    /// The underlying log backend (test hook: `MemLog`'s corruption helpers
    /// live here).
    pub fn log(&self) -> &L {
        &self.log
    }

    /// The store configuration.
    pub fn config(&self) -> &StoreConfig {
        &self.config
    }

    /// The sequence number the next record will receive.
    pub fn next_sequence(&self) -> u64 {
        self.appender.lock().expect("appender lock").next_sequence
    }

    /// The first backend failure since opening, if any (see the type-level
    /// notes on fault latching).
    pub fn fault(&self) -> Option<StoreError> {
        self.appender.lock().expect("appender lock").fault.clone()
    }

    /// Publishes this store's WAL latency into `obs` (when on):
    /// `store_append_nanos` (encode + segment append, rotation included),
    /// `store_fsync_nanos` (every policy-driven or explicit sync) and
    /// `store_snapshot_nanos` (full snapshot + compaction). One-shot:
    /// the first surface installed wins, later calls are ignored.
    pub fn set_obs(&self, obs: &ObsConfig) {
        if let Some(obs) = obs.obs() {
            let registry = obs.registry();
            let _ = self.obs.set(StoreObs {
                append_nanos: registry.histogram("store_append_nanos"),
                fsync_nanos: registry.histogram("store_fsync_nanos"),
                snapshot_nanos: registry.histogram("store_snapshot_nanos"),
            });
        }
    }

    /// Times `op` into `pick(handles)` when observability is installed.
    fn timed<T>(&self, pick: impl Fn(&StoreObs) -> &Histogram, op: impl FnOnce() -> T) -> T {
        match self.obs.get() {
            None => op(),
            Some(handles) => {
                let started = Instant::now();
                let out = op();
                pick(handles).record_duration(started.elapsed());
                out
            }
        }
    }

    fn append_locked(
        &self,
        appender: &mut Appender,
        event: &RiEvent,
        rng_after: [u8; 32],
    ) -> Result<(), StoreError> {
        let record = Record {
            sequence: appender.next_sequence,
            rng_after,
            event: event.clone(),
        };
        let framed = codec::encode_record(&record);
        if framed.len() - codec::RECORD_HEADER_LEN > codec::MAX_RECORD_LEN {
            // Appending a record no decoder will accept would silently
            // truncate all later history at the next recovery. Refuse it
            // and latch the fault instead — durability loss is visible,
            // never silent.
            return Err(StoreError::RecordTooLarge(
                framed.len() - codec::RECORD_HEADER_LEN,
            ));
        }
        self.timed(
            |h| &h.append_nanos,
            || -> Result<(), StoreError> {
                if appender.segment_bytes + framed.len() as u64 > self.config.segment_max_bytes {
                    self.log.rotate()?;
                    appender.segment_bytes = self.log.segment_len()?;
                }
                self.log.append(&framed)?;
                Ok(())
            },
        )?;
        appender.next_sequence += 1;
        appender.segment_bytes += framed.len() as u64;
        appender.unsynced = true;
        match self.config.fsync {
            // A deferred scope owes the barrier that syncs this record.
            FsyncPolicy::Always if sync_deferred() => Ok(()),
            FsyncPolicy::Always => self.sync_locked(appender),
        }
    }

    /// Syncs the log (timed as `store_fsync_nanos`) and notes that nothing
    /// appended so far is left unsynced.
    fn sync_locked(&self, appender: &mut Appender) -> Result<(), StoreError> {
        self.timed(|h| &h.fsync_nanos, || self.log.sync())?;
        appender.unsynced = false;
        Ok(())
    }

    /// Recovers the service: the latest snapshot through
    /// [`RiService::from_image`], then every surviving record, in order,
    /// through [`RiService::replay`] — which also leaves the random stream
    /// at the checkpoint of the last surviving record.
    ///
    /// # Errors
    ///
    /// [`StoreError::NoGenesis`] when no snapshot was ever written,
    /// [`StoreError::Corrupt`] when the snapshot itself fails validation,
    /// [`StoreError::Io`] when the backend cannot be read. A corrupt *log*
    /// tail is not an error — the report says where and why the scan
    /// stopped.
    pub fn load_with_report(&self) -> Result<(RiService, RecoveryReport), StoreError> {
        let snapshot = self.log.read_snapshot()?.ok_or(StoreError::NoGenesis)?;
        let (image, watermark) = codec::decode_snapshot(&snapshot)?;
        let service = RiService::from_image(image);
        let (last_sequence, stopped_early) = self.walk_after(watermark, |record, _| {
            service.replay(&record.event, record.rng_after);
        })?;
        Ok((
            service,
            RecoveryReport {
                events_applied: last_sequence - watermark,
                last_sequence,
                stopped_early,
            },
        ))
    }

    /// Reads every valid record with a sequence number beyond `watermark`,
    /// as raw frames a peer can re-validate and append verbatim — the
    /// read side replication is built on, so no caller ever parses segment
    /// files itself.
    ///
    /// A torn tail, a CRC mismatch or a sequence gap ends the tail cleanly
    /// (`stopped_early` says why), exactly like recovery: the frames before
    /// the damage are still the authoritative durable history.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] when the backend cannot be read. Corruption is
    /// *not* an error — the tail simply ends early.
    pub fn records_after(&self, watermark: u64) -> Result<RecordTail, StoreError> {
        let mut frames = Vec::new();
        let (last_sequence, stopped_early) =
            self.walk_after(watermark, |_, frame| frames.push(frame.to_vec()))?;
        Ok(RecordTail {
            frames,
            last_sequence,
            stopped_early,
        })
    }

    /// The one walk over the durable history: hands every valid record with
    /// a sequence number beyond `watermark` to `visit`, in sequence order,
    /// together with its verbatim frame. Returns the last sequence visited
    /// (`watermark` when none) and why the walk stopped before the physical
    /// end of the log, if it did — a bad segment header, a torn tail, a CRC
    /// mismatch or a sequence gap. Records at or below the watermark are
    /// covered by the snapshot (compaction may not have caught up) and are
    /// skipped.
    fn walk_after(
        &self,
        watermark: u64,
        mut visit: impl FnMut(&Record, &[u8]),
    ) -> Result<(u64, Option<String>), StoreError> {
        let mut last = watermark;
        for segment in self.log.segments()? {
            let bytes = self.log.read_segment(segment)?;
            let mut gap = None;
            let scan = scan_segment(&bytes, &mut |record, frame| {
                if gap.is_some() || record.sequence <= last {
                    return;
                }
                if record.sequence != last + 1 {
                    gap = Some(format!(
                        "sequence gap: expected {}, found {}",
                        last + 1,
                        record.sequence
                    ));
                    return;
                }
                visit(record, frame);
                last = record.sequence;
            });
            if let Some(reason) = gap.or_else(|| scan.error.map(|e| e.to_string())) {
                return Ok((last, Some(reason)));
            }
        }
        Ok((last, None))
    }

    /// The raw snapshot blob and the sequence watermark it covers, for
    /// bootstrapping a follower that is behind the compaction horizon. The
    /// blob is exactly what [`codec::decode_snapshot`] accepts.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] when the backend cannot be read,
    /// [`StoreError::Corrupt`] when the stored snapshot fails validation.
    pub fn snapshot_blob(&self) -> Result<Option<(Vec<u8>, u64)>, StoreError> {
        match self.log.read_snapshot()? {
            None => Ok(None),
            Some(blob) => {
                let (_, watermark) = codec::decode_snapshot(&blob)?;
                Ok(Some((blob, watermark)))
            }
        }
    }
}

/// What scanning one segment found.
struct SegmentScan {
    /// Length of the valid prefix, header included (0 when the header
    /// itself is unreadable).
    valid_len: usize,
    /// Why the scan stopped before the end, if it did.
    error: Option<StoreError>,
}

/// Iterates the records of one segment, calling `f` for each (with its
/// verbatim frame), and reports how far the valid prefix reaches — the
/// caller decides whether to stop (recovery, shipping) or amputate the
/// garbage (reopen).
fn scan_segment(bytes: &[u8], f: &mut impl FnMut(&Record, &[u8])) -> SegmentScan {
    let Some(mut rest) = bytes.strip_prefix(&log::SEGMENT_HEADER[..]) else {
        return SegmentScan {
            valid_len: 0,
            error: Some(StoreError::Corrupt("bad segment header".into())),
        };
    };
    let mut valid_len = log::SEGMENT_HEADER.len();
    while !rest.is_empty() {
        match codec::decode_record_prefix(rest) {
            Ok((record, consumed)) => {
                f(&record, &rest[..consumed]);
                rest = &rest[consumed..];
                valid_len += consumed;
            }
            Err(e) => {
                return SegmentScan {
                    valid_len,
                    error: Some(e),
                };
            }
        }
    }
    SegmentScan {
        valid_len,
        error: None,
    }
}

impl<L: Wal> RiJournal for RiStore<L> {
    fn record(&self, event: &RiEvent, rng_checkpoint: &dyn Fn() -> [u8; 32]) {
        let mut appender = self.appender.lock().expect("appender lock");
        if appender.fault.is_some() {
            return;
        }
        // The checkpoint is read *inside* the appender critical section, so
        // checkpoints are monotone in log order: recovery restoring the
        // last record's checkpoint can only skip forward over draws of
        // not-yet-journaled handlers, never rewind behind a journaled one.
        let rng_after = rng_checkpoint();
        if let Err(e) = self.append_locked(&mut appender, event, rng_after) {
            appender.fault = Some(e);
        }
    }

    fn flush(&self) -> Result<(), DrmError> {
        let mut appender = self.appender.lock().expect("appender lock");
        if let Some(fault) = &appender.fault {
            return Err(fault.clone().into());
        }
        if !appender.unsynced {
            return Ok(());
        }
        if let Err(e) = self.sync_locked(&mut appender) {
            // Latch: callers that discard the Result (drop-path shutdown)
            // still leave the failure visible through `fault()`.
            appender.fault = Some(e.clone());
            return Err(e.into());
        }
        Ok(())
    }

    fn snapshot(&self, capture: &dyn Fn() -> RiStateImage) -> Result<(), DrmError> {
        let mut appender = self.appender.lock().expect("appender lock");
        if let Some(fault) = &appender.fault {
            return Err(fault.clone().into());
        }
        match self.timed(
            |h| &h.snapshot_nanos,
            || self.snapshot_locked(&mut appender, capture),
        ) {
            Ok(()) => Ok(()),
            Err(e) => {
                // Latch, for the same reason as `flush`.
                appender.fault = Some(e.clone());
                Err(e.into())
            }
        }
    }

    fn health(&self) -> Result<(), DrmError> {
        match self.fault() {
            None => Ok(()),
            Some(fault) => Err(fault.into()),
        }
    }
}

impl<L: Wal> RiStore<L> {
    fn snapshot_locked(
        &self,
        appender: &mut Appender,
        capture: &dyn Fn() -> RiStateImage,
    ) -> Result<(), StoreError> {
        // The image is captured while the appender lock pins the sequence:
        // no record can slip between the capture and the watermark below,
        // so the snapshot can never claim to cover an event it predates.
        let image = capture();
        // The WAL must be durable up to the coverage watermark before the
        // snapshot claims to cover it.
        self.log.sync()?;
        appender.unsynced = false;
        let last_sequence = appender.next_sequence - 1;
        let blob = codec::encode_snapshot(&image, last_sequence);
        self.log.write_snapshot(&blob)?;
        // Everything up to `last_sequence` now lives in the snapshot:
        // rotate and drop the covered segments.
        let fresh = self.log.rotate()?;
        self.log.remove_segments_before(fresh)?;
        appender.segment_bytes = self.log.segment_len()?;
        Ok(())
    }
}

impl<L: Wal> StateSource for RiStore<L> {
    fn load_service(&self) -> Result<RiService, DrmError> {
        self.load_with_report()
            .map(|(service, _)| service)
            .map_err(DrmError::from)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oma_drm::domain::DomainId;
    use oma_drm::journal::RiJournal;
    use oma_drm::roap::DeviceHello;
    use oma_drm::RiService;
    use oma_pki::{CertificationAuthority, Timestamp};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::sync::Arc;

    fn world() -> (CertificationAuthority, RiService, StdRng) {
        let mut rng = StdRng::seed_from_u64(0xd0_15);
        let mut ca = CertificationAuthority::new("cmla", 384, &mut rng);
        let service = RiService::new("ri", 384, &mut ca, &mut rng);
        (ca, service, rng)
    }

    fn durable_world() -> (
        CertificationAuthority,
        Arc<RiService>,
        Arc<RiStore<MemLog>>,
        StdRng,
    ) {
        let (ca, service, rng) = world();
        let service = Arc::new(service);
        let store = Arc::new(RiStore::in_memory());
        service.set_journal(Arc::clone(&store) as Arc<dyn RiJournal>);
        store.snapshot(&|| service.state_image()).unwrap();
        (ca, service, store, rng)
    }

    #[test]
    fn wal_latency_lands_in_the_obs_histograms() {
        let (_ca, service, _rng) = world();
        let service = Arc::new(service);
        let store = Arc::new(RiStore::in_memory_with(StoreConfig {
            fsync: FsyncPolicy::Always,
            ..StoreConfig::default()
        }));
        let obs = oma_obs::Obs::new();
        store.set_obs(&ObsConfig::On(Arc::clone(&obs)));
        service.set_journal(Arc::clone(&store) as Arc<dyn RiJournal>);
        store.snapshot(&|| service.state_image()).unwrap();
        for i in 0..3 {
            service.hello_at(&DeviceHello::new(&format!("dev-{i}")), Timestamp::new(0));
        }

        let count = |name: &str| {
            obs.registry()
                .find_histogram(name)
                .unwrap_or_else(|| panic!("{name} not registered"))
                .snapshot()
                .count()
        };
        // One timed append per journaled event; `Always` fsyncs each of
        // them; the genesis snapshot was timed too.
        assert_eq!(count("store_append_nanos"), 3);
        assert!(count("store_fsync_nanos") >= 3);
        assert_eq!(count("store_snapshot_nanos"), 1);
    }

    #[test]
    fn a_barrier_syncs_once_and_only_when_something_is_unsynced() {
        let (_ca, service, store, _rng) = durable_world();
        let syncs = || store.log().syncs();
        let after_genesis = syncs();
        // Outside a deferred scope, each record is synced by its handler.
        service.hello_at(&DeviceHello::new("dev-0"), Timestamp::new(0));
        assert_eq!(syncs(), after_genesis + 1);
        store.flush().unwrap();
        assert_eq!(
            syncs(),
            after_genesis + 1,
            "nothing appended, nothing synced"
        );
        // Inside one, records wait for the barrier: two flushes, one sync.
        oma_drm::journal::deferred(|| {
            service.hello_at(&DeviceHello::new("dev-1"), Timestamp::new(0));
            service.hello_at(&DeviceHello::new("dev-2"), Timestamp::new(0));
        });
        assert_eq!(syncs(), after_genesis + 1);
        store.flush().unwrap();
        store.flush().unwrap();
        assert_eq!(syncs(), after_genesis + 2);
        // And what the barrier synced survives a power loss.
        store.log().lose_unsynced();
        let (recovered, report) = store.load_with_report().unwrap();
        assert_eq!(report.events_applied, 3);
        assert_eq!(recovered.state_image(), service.state_image());
    }

    #[test]
    fn deferred_records_are_lost_to_a_power_loss_until_the_barrier() {
        let (_ca, service, store, _rng) = durable_world();
        service.hello_at(&DeviceHello::new("synced"), Timestamp::new(0));
        oma_drm::journal::deferred(|| {
            service.hello_at(&DeviceHello::new("unsynced"), Timestamp::new(0));
        });
        store.log().lose_unsynced();
        let (recovered, report) = store.load_with_report().unwrap();
        assert_eq!(report.events_applied, 1);
        assert_eq!(report.stopped_early, None, "a power loss tears nothing");
        assert_eq!(recovered.pending_session_count(), 1);
    }

    #[test]
    fn genesis_snapshot_alone_recovers_the_identity() {
        let (_ca, service, store, _rng) = durable_world();
        let recovered = RiService::recover(&*store).unwrap();
        assert_eq!(recovered.state_image(), service.state_image());
    }

    #[test]
    fn no_genesis_is_an_explicit_error() {
        let store = RiStore::in_memory();
        assert!(matches!(
            store.load_with_report(),
            Err(StoreError::NoGenesis)
        ));
    }

    #[test]
    fn events_replay_on_top_of_the_snapshot() {
        let (_ca, service, store, _rng) = durable_world();
        service.create_domain("family", 4);
        for i in 0..5 {
            service.hello_at(
                &DeviceHello::new(&format!("dev-{i}")),
                Timestamp::new(i as u64),
            );
        }
        let (replayed, report) = store.load_with_report().unwrap();
        assert_eq!(report.events_applied, 6);
        assert_eq!(report.stopped_early, None);
        assert_eq!(replayed.state_image(), service.state_image());
        let recovered = RiService::recover(&*store).unwrap();
        assert!(recovered.has_domain(&DomainId::new("family")));
        assert_eq!(recovered.pending_session_count(), 5);
    }

    #[test]
    fn torn_tail_recovers_to_the_previous_record() {
        let (_ca, service, store, _rng) = durable_world();
        for i in 0..3 {
            service.hello_at(&DeviceHello::new(&format!("dev-{i}")), Timestamp::new(0));
        }
        let (clean, report) = store.load_with_report().unwrap();
        assert_eq!(report.events_applied, 3);
        // Power fails mid-write of the last record.
        store.log().truncate_tail(5);
        let (torn, report) = store.load_with_report().unwrap();
        assert_eq!(report.events_applied, 2);
        assert!(report.stopped_early.is_some());
        assert_eq!(torn.pending_session_count(), 2);
        // The RNG checkpoint is the one of the last *surviving* record: a
        // service recovered from the torn log re-issues dev-2's nonce
        // byte-identically.
        let recovered = RiService::recover(&*store).unwrap();
        let replayed = recovered.hello_at(&DeviceHello::new("dev-2"), Timestamp::new(0));
        assert_eq!(
            replayed.ri_nonce,
            clean
                .state_image()
                .tables
                .sessions
                .values()
                .last()
                .unwrap()
                .ri_nonce,
            "post-recovery draws must match the uninterrupted stream"
        );
    }

    #[test]
    fn reopening_continues_the_sequence_and_fences_garbage() {
        let (_ca, service, store, _rng) = durable_world();
        service.hello_at(&DeviceHello::new("dev-0"), Timestamp::new(0));
        let next_before = store.next_sequence();
        // Simulate a crash that tore the last record, then a reopen over
        // the same bytes.
        store.log().truncate_tail(3);
        let raw = store.log().raw_segments();
        let log = MemLog::new();
        for (index, bytes) in raw {
            while log.current_segment() < index {
                log.rotate().unwrap();
            }
            log.mutate_segment(index, |segment| *segment = bytes.clone());
        }
        log.write_snapshot(&store.log().read_snapshot().unwrap().unwrap())
            .unwrap();
        let reopened = RiStore::new(log, StoreConfig::default()).unwrap();
        // The torn record (sequence `next_before - 1`) is gone; the reopened
        // store hands out its sequence number again, and the garbage bytes
        // were amputated so nothing ever sits behind them.
        assert_eq!(reopened.next_sequence(), next_before - 1);
        let (_, report) = reopened.load_with_report().unwrap();
        assert_eq!(
            report.stopped_early, None,
            "the torn tail must be gone after reopen"
        );
    }

    #[test]
    fn records_appended_after_a_torn_tail_reopen_survive_the_next_recovery() {
        // Crash #1 tears the last record; the store is reopened over the
        // same bytes and keeps serving; crash #2 follows. Recovery must
        // replay the post-reopen records — the amputated garbage from
        // crash #1 must not hide them.
        let (_ca, service, store, _rng) = durable_world();
        service.hello_at(&DeviceHello::new("pre-crash"), Timestamp::new(0));
        store.log().truncate_tail(3); // crash #1: torn final record

        // Reopen over the surviving bytes (same dance as the reopen test).
        let raw = store.log().raw_segments();
        let log = MemLog::new();
        for (index, bytes) in raw {
            while log.current_segment() < index {
                log.rotate().unwrap();
            }
            log.mutate_segment(index, |segment| *segment = bytes.clone());
        }
        log.write_snapshot(&store.log().read_snapshot().unwrap().unwrap())
            .unwrap();
        let reopened = Arc::new(RiStore::new(log, StoreConfig::default()).unwrap());

        // The reopened service serves more traffic, all fsync'd...
        let recovered = RiService::recover(&*reopened).unwrap();
        recovered.set_journal(Arc::clone(&reopened) as Arc<dyn RiJournal>);
        recovered.hello_at(&DeviceHello::new("post-reopen"), Timestamp::new(1));
        drop(recovered); // ...crash #2: no flush, no snapshot.

        let (recovered, report) = reopened.load_with_report().unwrap();
        assert_eq!(report.stopped_early, None);
        assert!(
            recovered
                .state_image()
                .tables
                .sessions
                .values()
                .any(|s| s.device_id == "post-reopen"),
            "acknowledged post-reopen state must survive the second crash"
        );
    }

    #[test]
    fn segment_rotation_and_snapshot_compaction() {
        let (_ca, service, _store, _rng) = world_with_small_segments();
        let store = _store;
        for i in 0..40 {
            service.hello_at(&DeviceHello::new(&format!("dev-{i:03}")), Timestamp::new(0));
        }
        assert!(
            store.log().segments().unwrap().len() > 1,
            "tiny segments must have rotated"
        );
        let (recovered, report) = store.load_with_report().unwrap();
        assert_eq!(report.events_applied, 40);
        assert_eq!(recovered.pending_session_count(), 40);
        // Snapshot: one fresh segment survives, replay needs no events.
        store.snapshot(&|| service.state_image()).unwrap();
        assert_eq!(store.log().segments().unwrap().len(), 1);
        let (recovered, report) = store.load_with_report().unwrap();
        assert_eq!(report.events_applied, 0);
        assert_eq!(recovered.state_image(), service.state_image());
    }

    fn world_with_small_segments() -> (
        CertificationAuthority,
        Arc<RiService>,
        Arc<RiStore<MemLog>>,
        StdRng,
    ) {
        let (ca, service, rng) = world();
        let service = Arc::new(service);
        let store = Arc::new(RiStore::in_memory_with(StoreConfig {
            segment_max_bytes: 512,
            ..StoreConfig::default()
        }));
        service.set_journal(Arc::clone(&store) as Arc<dyn RiJournal>);
        store.snapshot(&|| service.state_image()).unwrap();
        (ca, service, store, rng)
    }

    #[test]
    fn oversized_record_latches_a_visible_fault() {
        let store = RiStore::in_memory();
        // A device id near the wire body cap yields a record no decoder
        // would ever accept; appending it must refuse + latch, not poison
        // the log silently.
        store.record(
            &RiEvent::SessionOpened {
                session_id: 1,
                device_id: "x".repeat(codec::MAX_RECORD_LEN),
                ri_nonce: vec![0; 14],
                opened_at: Timestamp::new(0),
            },
            &|| [0; 32],
        );
        assert!(matches!(store.fault(), Some(StoreError::RecordTooLarge(_))));
        assert!(store.flush().is_err(), "fault surfaces at the next flush");
        // The log itself stays scannable: nothing after the refusal.
        assert_eq!(store.next_sequence(), 1);
    }

    #[test]
    fn ttl_changes_replay_with_the_ttl_that_was_in_force() {
        // The genesis snapshot carries session_ttl = 0; the TTL is raised
        // *afterwards*, sessions expire, and a sweep is journaled. Replay
        // must apply the journaled TTL change first, so the sweep removes
        // exactly what the live service removed.
        let (_ca, service, store, _rng) = durable_world();
        service.set_session_ttl(60);
        service.hello_at(&DeviceHello::new("ghost"), Timestamp::new(0));
        service.hello_at(&DeviceHello::new("alive"), Timestamp::new(90));
        assert_eq!(service.sweep_sessions(Timestamp::new(100)), 1);
        assert_eq!(service.pending_session_count(), 1);

        let recovered = RiService::recover(&*store).unwrap();
        assert_eq!(
            recovered.pending_session_count(),
            1,
            "swept sessions must not resurrect on recovery"
        );
        assert_eq!(recovered.session_ttl(), 60, "TTL config survives too");
        assert_eq!(recovered.state_image(), service.state_image());
    }

    #[test]
    fn records_after_ships_exactly_the_tail_beyond_the_watermark() {
        let (_ca, service, store, _rng) = durable_world();
        for i in 0..5 {
            service.hello_at(&DeviceHello::new(&format!("dev-{i}")), Timestamp::new(0));
        }
        let tail = store.records_after(2).unwrap();
        assert_eq!(tail.frames.len(), 3);
        assert_eq!(tail.last_sequence, 5);
        assert_eq!(tail.stopped_early, None);
        // Frames are verbatim log bytes: they re-validate and re-decode.
        for (offset, frame) in tail.frames.iter().enumerate() {
            let (record, consumed) = codec::decode_record_prefix(frame).unwrap();
            assert_eq!(consumed, frame.len());
            assert_eq!(record.sequence, 3 + offset as u64);
        }
        // A watermark at (or past) the head yields an empty tail.
        assert_eq!(store.records_after(5).unwrap().frames.len(), 0);
        assert_eq!(store.records_after(99).unwrap().last_sequence, 99);
    }

    #[test]
    fn records_after_stops_cleanly_at_a_torn_tail() {
        let (_ca, service, store, _rng) = durable_world();
        for i in 0..3 {
            service.hello_at(&DeviceHello::new(&format!("dev-{i}")), Timestamp::new(0));
        }
        store.log().truncate_tail(5);
        let tail = store.records_after(0).unwrap();
        assert_eq!(tail.frames.len(), 2, "the torn record never ships");
        assert_eq!(tail.last_sequence, 2);
        assert!(tail.stopped_early.is_some());
        // A bit flip mid-record is caught by the CRC the same way.
        let (_ca, service, store, _rng) = durable_world();
        for i in 0..3 {
            service.hello_at(&DeviceHello::new(&format!("dev-{i}")), Timestamp::new(0));
        }
        let current = store.log().current_segment();
        store.log().mutate_segment(current, |bytes| {
            let last = bytes.len() - 10;
            bytes[last] ^= 0xFF;
        });
        let tail = store.records_after(0).unwrap();
        assert_eq!(tail.frames.len(), 2);
        assert!(tail.stopped_early.is_some());
    }

    #[test]
    fn snapshot_blob_exposes_the_genesis_watermark() {
        let (_ca, service, store, _rng) = durable_world();
        let (blob, watermark) = store.snapshot_blob().unwrap().unwrap();
        assert_eq!(watermark, 0, "genesis covers nothing");
        let (image, _) = codec::decode_snapshot(&blob).unwrap();
        assert_eq!(image, service.state_image());
        service.hello_at(&DeviceHello::new("dev-0"), Timestamp::new(0));
        store.snapshot(&|| service.state_image()).unwrap();
        let (_, watermark) = store.snapshot_blob().unwrap().unwrap();
        assert_eq!(watermark, 1);
        assert_eq!(RiStore::in_memory().snapshot_blob().unwrap(), None);
    }

    #[test]
    fn corrupt_snapshot_is_an_error_not_a_panic() {
        let (_ca, _service, store, _rng) = durable_world();
        store.log().mutate_snapshot(|bytes| {
            let mid = bytes.len() / 2;
            bytes[mid] ^= 0xFF;
        });
        assert!(matches!(
            store.load_with_report(),
            Err(StoreError::Corrupt(_))
        ));
    }
}
