//! Trace-accounting tests: the lock-free sharded counters inside
//! [`CryptoEngine`] must account exactly like the mutex-guarded `OpTrace`
//! they replaced — same counts over the full end-to-end lifecycle
//! (Registration → Acquisition → Installation → Consumption), consistent
//! snapshot/take semantics, and no lost updates under concurrency.

use oma_drm2::crypto::{Algorithm, CryptoEngine, OpTrace};
use oma_drm2::drm::{ContentIssuer, DrmAgent, Permission, RiService, RightsTemplate, RoapClient};
use oma_drm2::pki::{CertificationAuthority, Timestamp};
use rand::SeedableRng;
use std::sync::{Arc, Mutex};

struct Lifecycle {
    ri: RiService,
    agent: DrmAgent,
    dcf: oma_drm2::drm::Dcf,
}

fn lifecycle(seed: u64) -> Lifecycle {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut ca = CertificationAuthority::new("cmla", 512, &mut rng);
    let ri = RiService::new("ri.example.com", 512, &mut ca, &mut rng);
    let ci = ContentIssuer::new("ci.example.com");
    let agent = DrmAgent::new("phone-001", 512, &mut ca, &mut rng);
    let (dcf, cek) = ci.package(&vec![0x5au8; 4096], "cid:track", &mut rng);
    ri.add_content(
        "cid:track",
        cek,
        &dcf,
        RightsTemplate::unlimited(Permission::Play),
    );
    Lifecycle { ri, agent, dcf }
}

/// Drives the four phases and returns the per-phase traces taken from the
/// engine (the measured runner's access pattern).
fn run_phases(world: &mut Lifecycle) -> [OpTrace; 4] {
    let client = RoapClient::in_proc(&world.ri);
    let now = Timestamp::new(1_000);
    world.agent.engine().reset_trace();

    world.agent.register(&client, now).unwrap();
    let registration = world.agent.engine().take_trace();

    let response = world
        .agent
        .acquire_rights(&client, world.ri.id(), "cid:track", now)
        .unwrap();
    let acquisition = world.agent.engine().take_trace();

    let ro_id = world.agent.install_rights(&response, now).unwrap();
    let installation = world.agent.engine().take_trace();

    world
        .agent
        .consume(&ro_id, &world.dcf, Permission::Play, now)
        .unwrap();
    let consumption = world.agent.engine().take_trace();

    [registration, acquisition, installation, consumption]
}

#[test]
fn per_phase_takes_equal_one_cumulative_snapshot() {
    // Run the identical seeded lifecycle twice: once taking the trace at
    // every phase boundary, once only snapshotting at the end. The merged
    // phase traces must equal the cumulative trace — exactly what held for
    // the mutex-guarded recorder.
    let mut taken = lifecycle(0xface);
    let phases = run_phases(&mut taken);
    let mut merged = OpTrace::new();
    for phase in &phases {
        merged.merge(phase);
    }

    let mut snapshotted = lifecycle(0xface);
    let client = RoapClient::in_proc(&snapshotted.ri);
    let now = Timestamp::new(1_000);
    snapshotted.agent.engine().reset_trace();
    snapshotted.agent.register(&client, now).unwrap();
    let response = snapshotted
        .agent
        .acquire_rights(&client, snapshotted.ri.id(), "cid:track", now)
        .unwrap();
    let ro_id = snapshotted.agent.install_rights(&response, now).unwrap();
    snapshotted
        .agent
        .consume(&ro_id, &snapshotted.dcf, Permission::Play, now)
        .unwrap();
    let cumulative = snapshotted.agent.engine().trace();

    assert_eq!(merged, cumulative);
    // Snapshotting does not consume: the trace is still there.
    assert_eq!(snapshotted.agent.engine().trace(), cumulative);
    // Taking does consume.
    assert_eq!(snapshotted.agent.engine().take_trace(), cumulative);
    assert!(snapshotted.agent.engine().trace().is_empty());
}

#[test]
fn lifecycle_counts_match_the_seed_recorder_exactly() {
    // The exact per-phase counts the mutex-guarded implementation recorded
    // on this lifecycle (asserted by the seed's test suite); the lock-free
    // shards must reproduce them.
    let mut world = lifecycle(0xbeef);
    let [registration, acquisition, installation, consumption] = run_phases(&mut world);

    assert_eq!(registration.count(Algorithm::RsaPrivate).invocations, 1);
    assert_eq!(registration.count(Algorithm::RsaPublic).invocations, 3);

    assert_eq!(acquisition.count(Algorithm::RsaPrivate).invocations, 1);
    assert_eq!(acquisition.count(Algorithm::RsaPublic).invocations, 1);

    assert_eq!(installation.count(Algorithm::RsaPrivate).invocations, 1);
    assert_eq!(installation.count(Algorithm::HmacSha1).invocations, 1);
    assert!(installation.count(Algorithm::AesDecrypt).blocks > 0);
    assert!(installation.count(Algorithm::AesEncrypt).blocks > 0);

    assert_eq!(consumption.count(Algorithm::RsaPrivate).invocations, 0);
    assert_eq!(consumption.count(Algorithm::RsaPublic).invocations, 0);
    assert_eq!(consumption.count(Algorithm::HmacSha1).invocations, 1);
    assert_eq!(consumption.count(Algorithm::Sha1).invocations, 1);
    // 4096 bytes of content: 257 ciphertext blocks, plus the two key unwraps
    // (24 + 12 block operations).
    assert_eq!(
        consumption.count(Algorithm::AesDecrypt).blocks,
        257 + 24 + 12
    );
}

#[test]
fn lock_free_counters_match_a_mutex_reference_under_concurrency() {
    // Hammer one shared engine from several threads while mirroring every
    // operation into a mutex-guarded reference OpTrace (the old recorder's
    // data structure). No update may be lost or double-counted.
    let engine = Arc::new(CryptoEngine::with_seed(1));
    let reference = Arc::new(Mutex::new(OpTrace::new()));
    let mut handles = Vec::new();
    for t in 0..4u64 {
        let engine = Arc::clone(&engine);
        let reference = Arc::clone(&reference);
        handles.push(std::thread::spawn(move || {
            for i in 0..250usize {
                let data = vec![t as u8; 16 * (i % 7 + 1)];
                engine.sha1(&data);
                reference
                    .lock()
                    .unwrap()
                    .record(Algorithm::Sha1, 1, (i as u64 % 7) + 1);
                engine.hmac_sha1(b"key", &data);
                reference
                    .lock()
                    .unwrap()
                    .record(Algorithm::HmacSha1, 1, (i as u64 % 7) + 1);
            }
        }));
    }
    for handle in handles {
        handle.join().unwrap();
    }
    let lock_free = engine.take_trace();
    let mutex_reference = reference.lock().unwrap().clone();
    assert_eq!(lock_free, mutex_reference);
    assert_eq!(lock_free.total_invocations(), 4 * 250 * 2);
}

#[test]
fn cycle_meter_agrees_with_priced_trace_on_the_full_lifecycle() {
    // The backend's lock-free cycle meter is the second view of the same
    // accounting: over the whole lifecycle it must equal the Table 1
    // software pricing of the recorded trace, to the cycle.
    use oma_drm2::perf::arch::Architecture;
    use oma_drm2::perf::cost::CostTable;

    let mut world = lifecycle(0xcafe);
    world.agent.engine().take_charged_cycles();
    let phases = run_phases(&mut world);
    let charged = world.agent.engine().charged_cycles();

    let mut merged = OpTrace::new();
    for phase in &phases {
        merged.merge(phase);
    }
    let priced = Architecture::software().cycles(&merged, &CostTable::paper());
    assert_eq!(charged, priced);
}
