//! Concurrency test for `RiService`, whose state sits behind one lock: a
//! multi-threaded device fleet must lose no registrations, duplicate no
//! Rights Object ids, and produce outcomes byte-identical to a sequential
//! run with the same per-device seeds.
//!
//! The full 8-thread × 64-device configuration runs in release builds (CI
//! runs this file under `--release`, so the handlers' critical sections
//! interleave with each other's RSA work); debug builds use a scaled-down
//! fleet to keep the tier-1 `cargo test` pass fast.

use oma_drm2::drm::client::RoapClient;
use oma_drm2::drm::{ContentIssuer, DrmAgent, Permission, RiService, RightsTemplate};
use oma_drm2::load::{run_fleet, run_sequential, FleetSpec};
use oma_drm2::pki::{CertificationAuthority, Timestamp};
use rand::rngs::StdRng;
use rand::SeedableRng;
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
    // (RO ids, recovered-content digests, per-phase traces)
    // are byte-identical to the sequential reference.
    for (c, s) in concurrent.devices.iter().zip(&sequential.devices) {
        assert_eq!(
            c, s,
            "device {} diverged from the sequential run",
            c.device_id
        );
    }
    assert!(concurrent.matches(&sequential));

    // The aggregate per-phase trace equals the sequential reference's
    // trace exactly — addition commutes, scheduling must not matter.
    assert_eq!(concurrent.traces, sequential.traces);
}

#[test]
fn reregistration_is_idempotent_for_the_count() {
    // The same agents register twice with one service, buying a Rights
    // Object after each registration: the registered set must not
    // double-count, and no RO id may repeat across the two passes.
    let mut rng = StdRng::seed_from_u64(0x2e9);
    let mut ca = CertificationAuthority::new("cmla", 384, &mut rng);
    let service = RiService::new("ri.rereg", 384, &mut ca, &mut rng);
    let (dcf, cek) = ContentIssuer::new("ci.rereg").package(b"tune", "cid:tune", &mut rng);
    service.add_content(
        "cid:tune",
        cek,
        &dcf,
        RightsTemplate::unlimited(Permission::Play),
    );
    let client = RoapClient::in_proc(&service);
    let now = Timestamp::new(1_000);
    let mut agents: Vec<DrmAgent> = (0..4)
        .map(|i| DrmAgent::new(&format!("dev-{i}"), 384, &mut ca, &mut rng))
        .collect();

    let mut ro_ids = Vec::new();
    for pass in 0..2 {
        for agent in &mut agents {
            agent.register(&client, now).expect("registration");
            let response = agent
                .acquire_rights(&client, "ri.rereg", "cid:tune", now)
                .expect("acquisition");
            ro_ids.push(agent.install_rights(&response, now).expect("install"));
        }
        assert_eq!(
            service.registered_count(),
            agents.len(),
            "pass {pass}: re-registration must not double-count"
        );
    }
    let distinct: HashSet<_> = ro_ids.iter().collect();
    assert_eq!(distinct.len(), ro_ids.len(), "RO ids repeated: {ro_ids:?}");
}
