//! Concurrency test for `RiService`, whose state sits behind one lock: a
//! multi-threaded device fleet must lose no registrations, duplicate no
//! Rights Object ids, and produce outcomes byte-identical to a sequential
//! run with the same per-device seeds.
//!
//! The full 8-thread × 64-device configuration runs in release builds (CI
//! runs this file under `--release`, so the handlers' critical sections
//! interleave with each other's RSA work); debug builds use a scaled-down
//! fleet to keep the tier-1 `cargo test` pass fast.

use oma_drm2::load::{run_fleet, run_sequential, FleetSpec};
use std::collections::HashSet;

/// 8 threads × 64 devices in release; 4 × 16 in debug builds.
fn spec() -> FleetSpec {
    if cfg!(debug_assertions) {
        FleetSpec::new(16, 4)
    } else {
        FleetSpec::new(64, 8)
    }
}

#[test]
fn concurrent_fleet_is_consistent_and_deterministic() {
    let spec = spec();
    let concurrent = run_fleet(&spec).expect("concurrent fleet run");
    let sequential = run_sequential(&spec).expect("sequential reference run");

    // No lost updates: every device ended up registered.
    assert_eq!(concurrent.registrations, spec.devices as u64);
    assert_eq!(
        concurrent.devices.len(),
        spec.devices,
        "every device produced an outcome"
    );

    // No duplicate RO ids, and the expected number were issued.
    assert!(concurrent.duplicate_ro_ids().is_empty());
    assert_eq!(
        concurrent.rights_objects,
        (spec.devices * spec.acquisitions_per_device) as u64
    );
    let distinct: HashSet<&String> = concurrent
        .devices
        .iter()
        .flat_map(|d| d.ro_ids.iter())
        .collect();
    assert_eq!(distinct.len(), spec.devices * spec.acquisitions_per_device);

    // Determinism per device seed: the concurrent run's per-device outcomes
    // (RO ids, recovered-content digests, per-phase traces and cycle bills)
    // are byte-identical to the sequential reference.
    for (c, s) in concurrent.devices.iter().zip(&sequential.devices) {
        assert_eq!(
            c, s,
            "device {} diverged from the sequential run",
            c.device_id
        );
    }
    assert!(concurrent.matches(&sequential));

    // The aggregate per-phase cycle trace equals the sequential reference's
    // trace exactly — addition commutes, scheduling must not matter.
    assert_eq!(concurrent.traces, sequential.traces);
    assert_eq!(concurrent.cycles, sequential.cycles);
}

#[test]
fn reregistration_is_idempotent_for_the_count() {
    // Running the same fleet twice against one service would re-register the
    // same device ids; the registered set must not double-count. Simulate by
    // running a fleet where two spec runs share ids through determinism.
    let spec = FleetSpec::new(4, 2);
    let first = run_fleet(&spec).expect("first run");
    let second = run_fleet(&spec).expect("second run");
    // Each run uses its own service, so counts match rather than accumulate,
    // and outcomes are identical run over run.
    assert_eq!(first.registrations, second.registrations);
    assert!(first.matches(&second));
}
