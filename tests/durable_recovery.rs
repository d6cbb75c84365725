//! The crash-recovery invariant, end to end, under fleet load.
//!
//! A fleet run is interrupted by killing the Rights Issuer service after
//! it has served some number of frames — every possible number is tried —
//! and recovered from WAL + snapshot. The recovered run must be
//! **indistinguishable** from an uninterrupted reference run of the same
//! spec:
//!
//! * the same registered-device set (no lost registrations),
//! * no duplicate Rights Object ids,
//! * byte-identical `RoResponse` frames (signatures, wrapped keys, ids),
//! * the identical final service state image, RNG checkpoint included.
//!
//! CI runs this file under `--release`, where the sweep covers 5 devices
//! × 2 acquisitions; debug builds sweep a smaller fleet to keep the tier-1
//! `cargo test` pass fast.

use oma_drm2::load::{run_fleet_durable, run_sequential, FleetSpec};
use oma_drm2::store::{MemLog, RiStore, StoreConfig};
use std::sync::Arc;

/// 5 devices × 2 acquisitions in release; 3 × 2 in debug builds.
fn spec() -> FleetSpec {
    if cfg!(debug_assertions) {
        FleetSpec::new(3, 1).with_acquisitions(2)
    } else {
        FleetSpec::new(5, 1).with_acquisitions(2)
    }
}

/// Frames one run serves: a hello, a registration and one RoRequest per
/// acquisition, for every device.
fn frames(spec: &FleetSpec) -> u64 {
    (spec.devices * (2 + spec.acquisitions_per_device)) as u64
}

/// A fresh in-memory store: each run journals into its own.
fn mem_store() -> Arc<RiStore<MemLog>> {
    Arc::new(RiStore::in_memory())
}

#[test]
fn kill_at_every_wave_boundary_class_recovers_indistinguishably() {
    let spec = spec();
    let reference = run_fleet_durable(&spec, mem_store(), None).expect("reference run");
    assert_eq!(reference.recoveries, 0);

    // Every kill point: before the first frame, between any two, and
    // before the last.
    for kill_after in 0..frames(&spec) {
        let killed = run_fleet_durable(&spec, mem_store(), Some(kill_after)).expect("killed run");
        assert_eq!(killed.recoveries, 1, "kill point {kill_after} must fire");
        assert!(
            killed.events_replayed > 0,
            "recovery at {kill_after} replayed nothing"
        );

        // No lost registrations, no duplicate RO ids.
        assert_eq!(killed.fleet.registrations, spec.devices as u64);
        assert!(killed.fleet.duplicate_ro_ids().is_empty());

        // Byte-identical protocol output and final state.
        assert_eq!(
            killed.ro_response_frames, reference.ro_response_frames,
            "kill point {kill_after}: RoResponse frames diverged"
        );
        assert_eq!(
            killed.final_state, reference.final_state,
            "kill point {kill_after}: recovered service state diverged"
        );
        assert!(
            killed.fleet.matches(&reference.fleet),
            "kill point {kill_after}: device outcomes diverged"
        );
    }
}

#[test]
fn durable_fleet_matches_the_plain_sequential_reference() {
    // Journaling and crash recovery must be invisible to the devices: the
    // killed-and-recovered fleet still matches the plain (storeless)
    // sequential driver in every deterministic observable.
    let spec = spec();
    let killed =
        run_fleet_durable(&spec, mem_store(), Some(frames(&spec) / 2)).expect("killed run");
    let plain = run_sequential(&spec).expect("sequential reference");
    assert!(killed.fleet.matches(&plain));
}

#[test]
fn crash_spans_real_disk_bytes() {
    // The same invariant with the WAL on an actual FileLog directory: the
    // killed service instance is dropped wholesale and the recovered one
    // reads its history back from files.
    let dir = std::env::temp_dir().join(format!(
        "oma-durable-recovery-{}-{}",
        std::process::id(),
        std::thread::current().name().unwrap_or("t").len()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let spec = FleetSpec::smoke();
    let reference = run_fleet_durable(&spec, mem_store(), None).expect("reference run");

    let store = Arc::new(RiStore::open_dir(&dir, StoreConfig::default()).expect("open store"));
    let killed = run_fleet_durable(&spec, store, Some(4)).expect("killed run on disk");
    assert_eq!(killed.recoveries, 1);
    assert_eq!(killed.ro_response_frames, reference.ro_response_frames);
    assert_eq!(killed.final_state, reference.final_state);

    // The directory holds a post-run snapshot: a fresh store over the same
    // files recovers the full final state without replaying anything.
    let reopened = RiStore::open_dir(&dir, StoreConfig::default()).expect("reopen store");
    let (recovered, report) = reopened.load_with_report().expect("recover from disk");
    assert_eq!(report.events_applied, 0, "final snapshot covers everything");
    assert_eq!(recovered.state_image(), killed.final_state);
    std::fs::remove_dir_all(&dir).ok();
}
