//! Cluster failover acceptance suite: kill the primary of a replicated
//! Rights Issuer pair at every point of a fleet run and prove the failover
//! is invisible.
//!
//! The invariants, in order of decreasing strength:
//!
//! 1. **Byte-identical takeover** — the promoted follower's
//!    `RiStateImage` equals the killed primary's state at the instant it
//!    died, field for field, RNG checkpoint included. Replication ships
//!    the WAL synchronously with every served frame, so the follower can
//!    never be behind an acknowledged response.
//! 2. **No identity is ever re-issued** — Rights Object ids and
//!    registration session ids are monotone counters inside the
//!    replicated state; the epoch change cannot reset them.
//! 3. **Surviving devices cannot tell** — every device completes its full
//!    lifecycle, and the raw `RoResponse` frames are byte-identical to an
//!    unkilled run. The whole cluster run `matches` the single-service
//!    sequential reference, so replication + failover together change no
//!    deterministic observable.
//!
//! CI runs this file under `--release`, where the sweep covers 6 devices
//! × 2 acquisitions; debug builds sweep a smaller fleet to keep the tier-1
//! `cargo test` pass fast.

use oma_drm2::cluster::{replicate, AckPolicy, Follower, Primary};
use oma_drm2::drm::journal::RiJournal;
use oma_drm2::drm::roap::DeviceHello;
use oma_drm2::drm::RiService;
use oma_drm2::load::{run_fleet_cluster, run_sequential, FleetSpec};
use oma_drm2::pki::{CertificationAuthority, Timestamp};
use oma_drm2::store::RiStore;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

/// 6 devices × 2 acquisitions in release; 3 × 2 in debug builds.
fn spec() -> FleetSpec {
    if cfg!(debug_assertions) {
        FleetSpec::new(3, 1).with_acquisitions(2)
    } else {
        FleetSpec::new(6, 1).with_acquisitions(2)
    }
}

/// Frames one run serves: a hello, a registration and one RoRequest per
/// acquisition, for every device.
fn frames(spec: &FleetSpec) -> u64 {
    (spec.devices * (2 + spec.acquisitions_per_device)) as u64
}

/// The acceptance scenario: the primary is killed before each frame of the
/// run in turn, and every kill must be invisible.
#[test]
fn kill_the_primary_mid_wave_is_invisible() {
    let spec = spec();
    let reference = run_fleet_cluster(&spec, None).unwrap();
    assert_eq!(reference.failovers, 0);

    for kill_after in 0..frames(&spec) {
        let killed = run_fleet_cluster(&spec, Some(kill_after)).unwrap();

        // Exactly one primary died and its follower took over.
        assert_eq!(killed.failovers, 1, "kill point {kill_after} must fire");
        assert_eq!(killed.final_epoch, 2);

        // Invariant 1: byte-identical takeover.
        let pre_kill = killed.pre_kill_image.as_ref().expect("a primary died");
        let promoted = killed
            .promoted_image
            .as_ref()
            .expect("a follower took over");
        assert_eq!(
            pre_kill, promoted,
            "kill point {kill_after}: promoted follower must hold the dead primary's exact state"
        );

        // Invariant 2: no identity re-issued across the epoch change.
        assert!(killed.fleet.duplicate_ro_ids().is_empty());

        // Invariant 3: surviving devices cannot tell.
        assert!(
            killed.fleet.matches(&reference.fleet),
            "kill point {kill_after}: device outcomes diverged"
        );
        assert_eq!(
            killed.ro_response_frames, reference.ro_response_frames,
            "kill point {kill_after}: RoResponse bytes must survive the failover byte-identically"
        );
    }
}

/// The cluster run — replicated and failed over — still matches the plain
/// single-service sequential reference: replication changes nothing a
/// device can observe.
#[test]
fn failed_over_cluster_matches_the_sequential_reference() {
    let spec = spec();
    let killed = run_fleet_cluster(&spec, Some(frames(&spec) / 2)).unwrap();
    let sequential = run_sequential(&spec).unwrap();
    assert_eq!(killed.failovers, 1);
    assert!(
        killed.fleet.matches(&sequential),
        "cluster observables must equal the single-service reference"
    );
}

/// Session ids keep counting across a promotion: the next registration on
/// the promoted node continues the deposed primary's sequence instead of
/// restarting it — the direct mechanism behind invariant 2.
#[test]
fn promotion_continues_the_session_sequence() {
    let mut rng = StdRng::seed_from_u64(0xfa11);
    let mut ca = CertificationAuthority::new("cmla", 384, &mut rng);
    let service = Arc::new(RiService::new("ri.pair", 384, &mut ca, &mut rng));
    let store = Arc::new(RiStore::in_memory());
    service.set_journal(Arc::clone(&store) as Arc<dyn RiJournal>);
    store.snapshot(&|| service.state_image()).unwrap();
    let primary = Primary::new("node.a", 1, store);

    let now = Timestamp::new(1_000);
    let mut sessions: Vec<u64> = (0..4)
        .map(|i| {
            service
                .hello_at(&DeviceHello::new(&format!("dev-{i}")), now)
                .session_id
        })
        .collect();

    let mut follower = Follower::in_memory("node.b", AckPolicy::OnFsync);
    replicate(&primary, &mut follower).unwrap();
    primary.fence();
    let promoted = follower.promote(2).unwrap();

    sessions.extend((4..8).map(|i| {
        promoted
            .service
            .hello_at(&DeviceHello::new(&format!("dev-{i}")), now)
            .session_id
    }));
    let mut deduped = sessions.clone();
    deduped.sort_unstable();
    deduped.dedup();
    assert_eq!(
        deduped.len(),
        sessions.len(),
        "session ids must stay unique across the epoch change: {sessions:?}"
    );
    for pair in sessions.windows(2) {
        assert!(pair[0] < pair[1], "session ids stay monotone: {sessions:?}");
    }
}
