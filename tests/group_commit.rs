//! Group commit on the event loop, checked against a power loss.
//!
//! The event loop dispatches a whole readiness batch with its records
//! appended but not synced, runs one barrier, and only then writes the
//! batch's responses. These tests hold it to the promise that makes that
//! safe — a response a peer holds is always durable — with a [`MemLog`]
//! that models power loss: [`MemLog::lose_unsynced`] drops every byte
//! appended since the last sync, and recovery must still know every Rights
//! Object id the client was handed.
//!
//! The log's syncs are slowed down on purpose: a loop that released a
//! batch's responses before (or without) its barrier would let the client
//! read them while the records are still unsynced, and the power loss
//! would then take those records.

use oma_drm2::drm::journal::RiJournal;
use oma_drm2::drm::roap::DeviceHello;
use oma_drm2::drm::{
    ContentIssuer, DrmAgent, Permission, RiService, RightsTemplate, RoapClient, RoapPdu,
};
use oma_drm2::net::{read_frame, RoapEventServer, ServerConfig, TcpTransport};
use oma_drm2::pki::{CertificationAuthority, Timestamp};
use oma_drm2::store::{MemLog, RiStore, StoreError};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

const CONTENT: &str = "cid:track";
const PIPELINED: usize = 8;
/// Long enough that a client always reads a response released before its
/// barrier finished, short enough to keep the suite fast.
const SLOW_SYNC: Duration = Duration::from_millis(100);

fn now() -> Timestamp {
    Timestamp::new(1_000)
}

struct World {
    ca: CertificationAuthority,
    rng: StdRng,
    service: Arc<RiService>,
    store: Arc<RiStore<MemLog>>,
}

fn world(seed: u64) -> World {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut ca = CertificationAuthority::new("cmla", 384, &mut rng);
    let service = Arc::new(RiService::new("ri", 384, &mut ca, &mut rng));
    let (dcf, cek) = ContentIssuer::new("ci").package(b"track", CONTENT, &mut rng);
    service.add_content(
        CONTENT,
        cek,
        &dcf,
        RightsTemplate::unlimited(Permission::Play),
    );
    World {
        ca,
        rng,
        service,
        store: Arc::new(RiStore::in_memory()),
    }
}

/// Registers a device through `server`, then sends [`PIPELINED`] pre-signed
/// `RoRequest`s in one write and reads every response. Returns the Rights
/// Object ids the client now holds.
fn pipelined_ro_ids(w: &mut World, server: &RoapEventServer) -> Vec<String> {
    let mut agent = DrmAgent::new("phone-001", 384, &mut w.ca, &mut w.rng);
    let client = RoapClient::new(TcpTransport::connect(server.local_addr()).unwrap());
    agent.register(&client, now()).unwrap();
    w.store.log().set_sync_delay(SLOW_SYNC);

    let mut burst = Vec::new();
    for _ in 0..PIPELINED {
        let request = agent.ro_request("ri", CONTENT, None, now()).unwrap();
        burst.extend(RoapPdu::RoRequest(request).encode());
    }
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    stream.write_all(&burst).unwrap();
    (0..PIPELINED)
        .map(
            |_| match RoapPdu::decode(&read_frame(&mut stream).unwrap()).unwrap() {
                RoapPdu::RoResponse(response) => response.rights_object.id().as_str().to_string(),
                other => panic!("expected an RoResponse, got {other:?}"),
            },
        )
        .collect()
}

/// Cuts the power, recovers, and checks every held id was issued by the
/// recovered state (ids are `ro:<ri>:<scope>:<sequence>`).
fn assert_power_loss_keeps(store: &RiStore<MemLog>, held: &[String]) {
    store.log().lose_unsynced();
    let recovered = RiService::recover(store).expect("recover after power loss");
    let sequences = recovered.state_image().tables.ro_sequences;
    assert!(recovered.is_registered("phone-001"), "registration lost");
    for id in held {
        let (scope, sequence) = id
            .strip_prefix("ro:ri:")
            .and_then(|rest| rest.rsplit_once(':'))
            .expect("RO id layout");
        let sequence: u64 = sequence.parse().unwrap();
        assert!(
            sequences.get(scope).is_some_and(|next| *next > sequence),
            "{id} was answered but a power loss took its record (recovered {sequences:?})"
        );
    }
}

#[test]
fn pipelined_responses_survive_a_power_loss() {
    let mut w = world(0x6c_01);
    let server = RoapEventServer::bind(
        Arc::clone(&w.service),
        ServerConfig::durable(Arc::clone(&w.store) as Arc<dyn RiJournal>).with_clock(now()),
    )
    .unwrap();
    let held = pipelined_ro_ids(&mut w, &server);
    assert_eq!(held.len(), PIPELINED);
    assert_power_loss_keeps(&w.store, &held);
    server.shutdown();
}

#[test]
fn a_server_bound_without_a_store_syncs_the_services_journal() {
    // The journal is the service's, attached before bind; the server has
    // no store of its own — as a second server on a journaled service does.
    let mut w = world(0x6c_02);
    w.service
        .set_journal(Arc::clone(&w.store) as Arc<dyn RiJournal>);
    w.service.snapshot_to(&*w.store).unwrap();
    let server = RoapEventServer::bind(
        Arc::clone(&w.service),
        ServerConfig::default().with_clock(now()),
    )
    .unwrap();
    let held = pipelined_ro_ids(&mut w, &server);
    assert_power_loss_keeps(&w.store, &held);
    server.shutdown();
}

#[test]
fn a_failed_barrier_releases_nothing_and_stops_the_server() {
    let w = world(0x6c_03);
    let server = RoapEventServer::bind(
        Arc::clone(&w.service),
        ServerConfig::durable(Arc::clone(&w.store) as Arc<dyn RiJournal>).with_clock(now()),
    )
    .unwrap();
    let addr = server.local_addr();
    w.store.log().fail_next_sync();

    // A hello journals the session it opens; the barrier over its batch
    // fails, so the peer must see the connection end without a byte.
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    stream
        .write_all(&RoapPdu::DeviceHello(DeviceHello::new("dev")).encode())
        .unwrap();
    let mut answer = Vec::new();
    let _ = stream.read_to_end(&mut answer);
    assert!(
        answer.is_empty(),
        "{} response bytes released",
        answer.len()
    );
    assert!(matches!(w.store.fault(), Some(StoreError::Io(_))));

    // The server stopped: its listener closes, and nothing answers.
    let deadline = Instant::now() + Duration::from_secs(10);
    while TcpStream::connect(addr).is_ok() {
        assert!(Instant::now() < deadline, "the server kept listening");
        std::thread::sleep(Duration::from_millis(20));
    }
    let refused = TcpTransport::connect(addr)
        .and_then(|transport| RoapClient::new(transport).hello(&DeviceHello::new("late")));
    assert!(
        matches!(refused, Err(oma_drm2::drm::DrmError::Transport(_))),
        "got {refused:?}"
    );
    server.shutdown();
}
