//! Recovery and failover, timed on an image of the state a run built.
//!
//! For `acquire_durable` the image is a copy of the WAL directory taken
//! while the service was still up — what a crash would leave behind: the
//! boot snapshot plus every journaled record, replayed on open. For the
//! in-memory workloads the image is a checkpoint written after the run
//! (snapshot only, nothing to replay), so the same two questions — how
//! long until a restarted node serves again, how long until a caught-up
//! follower does — have an answer on every workload, scaled by the state
//! that workload leaves.
//!
//! The image is taken halfway through the run and the repeats are spread
//! over the rounds after it ([`RecoveryProbe::round`]); phase lengths are
//! op counts, so "halfway" is the same state for every run of a seed. A
//! second image, of the final state, is recovered and promoted once more
//! at the end, untimed, for the oracle.
//!
//! Both answers are checked: the recovered image must equal the live
//! `state_image()`, and every promoted image must equal the primary's.

use crate::stats::Measure;
use crate::traffic::Tally;
use oma_cluster::{replicate, AckPolicy, Follower, Primary, ReplPdu};
use oma_drm::journal::{RiJournal, RiStateImage};
use oma_drm::RiService;
use oma_store::{FileLog, RiStore, StoreConfig};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// What the probe measured.
#[derive(Debug, Default)]
pub struct RecoverySamples {
    /// `RiStore::open_dir` + `RiService::recover`, milliseconds each.
    pub recover_ms: Vec<f64>,
    /// `Follower::promote`, milliseconds each.
    pub promote_ms: Vec<f64>,
    /// Records each follower applied per second of `replicate`.
    pub replicate_rec_per_s: Vec<f64>,
    /// Records in the image's log.
    pub records: u64,
    /// Encoded `Records` PDU bytes shipped per record (exact).
    pub ship_bytes_per_record: f64,
    /// Log replay per event: image load time over events applied.
    pub replay_us_per_event: f64,
    /// One full snapshot + compaction of the image, milliseconds.
    pub snapshot_ms: f64,
}

/// Writes a checkpoint of `image` into `dir`: the recovery image of a
/// workload that ran without a journal.
pub fn write_checkpoint(dir: &Path, image: &RiStateImage) -> Result<(), String> {
    let store = RiStore::open_dir(dir, StoreConfig::default()).map_err(|e| e.to_string())?;
    store
        .snapshot(&|| image.clone())
        .map_err(|e| format!("checkpoint: {e:?}"))
}

/// Copies every file of the WAL directory `from` into `to` — the crash
/// image. Taken while the store is quiescent, so no record is torn.
pub fn copy_wal_dir(from: &Path, to: &Path) -> Result<(), String> {
    std::fs::create_dir_all(to).map_err(|e| e.to_string())?;
    for entry in std::fs::read_dir(from).map_err(|e| e.to_string())? {
        let entry = entry.map_err(|e| e.to_string())?;
        std::fs::copy(entry.path(), to.join(entry.file_name())).map_err(|e| e.to_string())?;
    }
    Ok(())
}

/// Recovery and failover on one image, timed a round at a time so the
/// repeats spread over the second half of the run instead of sharing one
/// moment of the host's mood.
pub struct RecoveryProbe {
    dir: PathBuf,
    live: RiStateImage,
    store: Arc<RiStore<FileLog>>,
    primary: Primary<FileLog>,
    samples: RecoverySamples,
    followers: usize,
}

impl RecoveryProbe {
    /// Opens the image in `dir`, recovers it once and checks the result
    /// against `live`, the service's state when the image was taken.
    pub fn open(dir: &Path, live: RiStateImage, tally: &mut Tally) -> Option<RecoveryProbe> {
        tally.attempted += 1;
        let recovered = RiStore::open_dir(dir, StoreConfig::default())
            .map_err(|e| e.to_string())
            .and_then(|store| RiService::recover(&store).map_err(|e| format!("{e:?}")));
        match recovered {
            Ok(service) if service.state_image() == live => {}
            Ok(_) => tally.fail("recovered image differs from the live state image".into()),
            Err(e) => {
                tally.fail(format!("recover: {e}"));
                return None;
            }
        }
        let store = match RiStore::open_dir(dir, StoreConfig::default()) {
            Ok(store) => Arc::new(store),
            Err(e) => {
                tally.fail(format!("open image: {e}"));
                return None;
            }
        };
        let mut samples = RecoverySamples::default();
        let load_started = Instant::now();
        if let Ok((_, report)) = store.load_with_report() {
            samples.records = report.events_applied;
            if report.events_applied > 0 {
                samples.replay_us_per_event =
                    load_started.elapsed().as_secs_f64() * 1e6 / report.events_applied as f64;
            }
        }
        let primary = Primary::new("bench-primary", 1, Arc::clone(&store));
        if let Ok(pdus) =
            primary.handle(&Follower::in_memory("probe", AckPolicy::Async).handshake())
        {
            let shipped: usize = pdus
                .iter()
                .filter(|pdu| matches!(pdu, ReplPdu::Records { .. }))
                .map(|pdu| pdu.encode().len())
                .sum();
            if samples.records > 0 {
                samples.ship_bytes_per_record = shipped as f64 / samples.records as f64;
            }
        }
        Some(RecoveryProbe {
            dir: dir.to_path_buf(),
            live,
            store,
            primary,
            samples,
            followers: 0,
        })
    }

    /// One round: restarts for half of `seconds` (at least one), then
    /// followers caught up and promoted for the other half (at least one).
    pub fn round(&mut self, seconds: f64, tally: &mut Tally) {
        let started = Instant::now();
        loop {
            let rep_started = Instant::now();
            let recovered = RiStore::open_dir(&self.dir, StoreConfig::default())
                .map_err(|e| e.to_string())
                .and_then(|store| RiService::recover(&store).map_err(|e| format!("{e:?}")));
            self.samples
                .recover_ms
                .push(rep_started.elapsed().as_secs_f64() * 1e3);
            tally.attempted += 1;
            if let Err(e) = recovered {
                tally.fail(format!("recover: {e}"));
                return;
            }
            if started.elapsed().as_secs_f64() >= seconds / 2.0 {
                break;
            }
        }
        loop {
            self.followers += 1;
            let mut follower = Follower::in_memory(
                &format!("bench-follower-{}", self.followers),
                AckPolicy::Async,
            );
            let rep_started = Instant::now();
            let applied = replicate(&self.primary, &mut follower);
            let replicate_s = rep_started.elapsed().as_secs_f64();
            tally.attempted += 1;
            match applied {
                Ok(applied) => self
                    .samples
                    .replicate_rec_per_s
                    .push(applied as f64 / replicate_s),
                Err(e) => {
                    tally.fail(format!("replicate: {e}"));
                    return;
                }
            }
            let rep_started = Instant::now();
            let promoted = follower.promote(2);
            self.samples
                .promote_ms
                .push(rep_started.elapsed().as_secs_f64() * 1e3);
            match promoted {
                Ok(promoted) if promoted.image == self.live => {}
                Ok(_) => tally.fail("promoted image differs from the primary's".into()),
                Err(e) => tally.fail(format!("promote: {e}")),
            }
            if started.elapsed().as_secs_f64() >= seconds {
                break;
            }
        }
    }

    /// Ends the probe with the one measurement that changes the image: a
    /// snapshot of the full state (which compacts the log).
    pub fn finish(mut self, tally: &mut Tally) -> RecoverySamples {
        let started = Instant::now();
        let live = &self.live;
        if let Err(e) = self.store.snapshot(&|| live.clone()) {
            tally.fail(format!("snapshot: {e:?}"));
        }
        self.samples.snapshot_ms = started.elapsed().as_secs_f64() * 1e3;
        self.samples
    }
}

impl RecoverySamples {
    /// `recover_ms`: the median of the timed recoveries.
    pub fn recover(&self) -> Measure {
        Measure::of(&self.recover_ms)
    }

    /// `failover_ms`: the median of the followers' promotion times.
    pub fn failover(&self) -> Measure {
        Measure::of(&self.promote_ms)
    }
}
