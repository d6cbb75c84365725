//! Acceptance tests for the readiness event loop (`RoapEventServer`).
//!
//! Two claims are on trial. **Equivalence:** a TCP fleet driven against
//! the event loop produces byte-identical per-device observables (RO ids,
//! recovered content digests, operation traces) to the
//! sequential in-process reference. **Parking:** its one loop thread holds
//! a parked fleet far larger than any thread-per-connection server could,
//! while still answering the few devices that wake up.

use oma_drm2::load::{run_fleet_tcp, run_idle_fleet, run_sequential, FleetSpec, IdleFleetSpec};

/// A fleet big enough to overlap connections but small enough for CI.
fn spec() -> FleetSpec {
    FleetSpec::new(5, 3).with_acquisitions(2)
}

#[test]
fn event_loop_fleet_matches_the_sequential_reference() {
    let spec = spec();
    let event = run_fleet_tcp(&spec).expect("event-loop fleet");
    let reference = run_sequential(&spec).expect("sequential reference");
    assert!(
        event.matches(&reference),
        "event-loop TCP fleet diverged from the in-process reference"
    );
}

#[test]
fn single_worker_event_loop_holds_a_parked_fleet() {
    // 300 parked connections, 6 of which wake up for a full life-cycle,
    // all served by the one loop thread. A thread-per-connection core
    // starves once its threads are parked; the event loop must not.
    let mut spec = IdleFleetSpec::new(300, 6);
    spec.client_threads = 8;

    let report = run_idle_fleet(&spec).expect("idle fleet");
    assert_eq!(report.parked, 300);
    assert_eq!(report.active.len(), 6, "every active device completed");
    assert!(
        report.metrics.peak_active >= 300,
        "peak_active {} never reached the parked population",
        report.metrics.peak_active
    );
    assert_eq!(report.metrics.shed, 0);
    assert_eq!(report.metrics.reaped_idle, 0);
    assert_eq!(report.metrics.reaped_frame, 0);

    // Outcomes were already verified byte-for-byte against the in-process
    // reference inside the harness; spot-check the shape here.
    for outcome in &report.active {
        assert_eq!(outcome.ro_ids.len(), spec.fleet.acquisitions_per_device);
    }
}
