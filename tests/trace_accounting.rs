//! Trace-accounting tests: an engine's trace is its backend's lock-free
//! ledger of what it executed, and it must account exactly like the
//! mutex-guarded `OpTrace` recorder of the seed — same counts over the full
//! end-to-end lifecycle (Registration → Acquisition → Installation →
//! Consumption), consistent snapshot/take semantics, no lost updates under
//! concurrency, and cycles that are the Table 1 price of the trace. Read per
//! thread, the same ledger gives each concurrent dispatch exactly its own
//! operations.

use oma_drm2::crypto::backend::{scoped, CryptoBackend, SoftwareBackend};
use oma_drm2::crypto::{Algorithm, OpTrace};
use oma_drm2::drm::{
    ContentIssuer, DrmAgent, Permission, RiService, RightsTemplate, RoapClient, RoapPdu,
};
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
    // on this lifecycle (asserted by the seed's test suite); the backend's
    // ledger must reproduce them.
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
    // Hammer one shared backend's ledger from several threads while
    // mirroring every operation into a mutex-guarded reference OpTrace (the
    // old recorder's data structure). No update may be lost or
    // double-counted.
    let backend = Arc::new(SoftwareBackend::new());
    let reference = Arc::new(Mutex::new(OpTrace::new()));
    let mut handles = Vec::new();
    for t in 0..4u64 {
        let backend = Arc::clone(&backend);
        let reference = Arc::clone(&reference);
        handles.push(std::thread::spawn(move || {
            for i in 0..250usize {
                let data = vec![t as u8; 16 * (i % 7 + 1)];
                backend.sha1(&data);
                reference
                    .lock()
                    .unwrap()
                    .record(Algorithm::Sha1, 1, (i as u64 % 7) + 1);
                backend.hmac_sha1(b"key", &data);
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
    let lock_free = backend.meter().take();
    let mutex_reference = reference.lock().unwrap().clone();
    assert_eq!(lock_free, mutex_reference);
    assert_eq!(lock_free.total_invocations(), 4 * 250 * 2);
}

#[test]
fn cycle_meter_agrees_with_priced_trace_on_the_full_lifecycle() {
    // The backend prices its own ledger: per phase and over the whole
    // lifecycle its cycles must equal Table 1's software column applied to
    // the same trace, to the cycle.
    use oma_drm2::perf::cost::CostTable;

    let mut world = lifecycle(0xcafe);
    let phases = run_phases(&mut world);
    let backend = world.agent.engine().backend();
    let table = CostTable::paper();
    let model = |trace: &OpTrace| -> u64 {
        trace
            .iter()
            .map(|(alg, count)| table.software(alg).cycles(count))
            .sum()
    };

    let mut merged = OpTrace::new();
    for phase in &phases {
        assert_eq!(backend.price(phase), model(phase));
        merged.merge(phase);
    }
    assert_eq!(backend.price(&merged), model(&merged));
    assert!(backend.meter().trace().is_empty(), "each phase was taken");
}

#[test]
fn concurrent_dispatches_each_carry_exactly_their_own_cycles() {
    // Two devices push pre-signed RoRequests into one service from two
    // threads at once. Each dispatch's scope must hold exactly one
    // RoRequest's operations — never a neighbour's — and the scopes must
    // add up to what the service's backend booked meanwhile.
    const OPS: usize = 8;

    let mut rng = rand::rngs::StdRng::seed_from_u64(0x5ca1e);
    let mut ca = CertificationAuthority::new("cmla", 512, &mut rng);
    let ri = RiService::new("ri.example.com", 512, &mut ca, &mut rng);
    let (dcf, cek) = ContentIssuer::new("ci.example.com").package(b"track", "cid:t", &mut rng);
    ri.add_content(
        "cid:t",
        cek,
        &dcf,
        RightsTemplate::unlimited(Permission::Play),
    );
    let client = RoapClient::in_proc(&ri);
    let now = Timestamp::new(1_000);
    let frames: Vec<Vec<Vec<u8>>> = ["dev-a", "dev-b"]
        .into_iter()
        .map(|id| {
            let mut agent = DrmAgent::new(id, 512, &mut ca, &mut rng);
            agent.register(&client, now).unwrap();
            (0..=OPS)
                .map(|_| {
                    let request = agent.ro_request(ri.id(), "cid:t", None, now).unwrap();
                    RoapPdu::RoRequest(request).encode()
                })
                .collect()
        })
        .collect();

    // One op's reference: a warm RoRequest dispatched alone.
    let (_, reference) = scoped(|| ri.dispatch(&frames[0][OPS]));
    assert!(reference.count(Algorithm::RsaPrivate).invocations > 0);
    let one_op = ri.backend().price(&reference);

    let before = ri.backend().meter().trace();
    let scopes: Vec<OpTrace> = std::thread::scope(|s| {
        let workers: Vec<_> = frames
            .iter()
            .map(|device| {
                let ri = &ri;
                s.spawn(move || {
                    device[..OPS]
                        .iter()
                        .map(|frame| {
                            let (response, ops) = scoped(|| ri.dispatch(frame));
                            assert!(matches!(
                                RoapPdu::decode(&response),
                                Ok(RoapPdu::RoResponse(_))
                            ));
                            ops
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|worker| worker.join().unwrap())
            .collect()
    });

    let mut summed = before;
    for ops in &scopes {
        assert_eq!(ops, &reference);
        assert_eq!(ri.backend().price(ops), one_op);
        summed.merge(ops);
    }
    assert_eq!(scopes.len(), 2 * OPS);
    assert_eq!(summed, ri.backend().meter().trace());
}
