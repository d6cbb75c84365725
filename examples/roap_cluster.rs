//! A replicated Rights Issuer pair with live failover.
//!
//! One primary serves license traffic while shipping its write-ahead log
//! to a follower **over a real TCP replication connection**. The primary
//! is then deposed mid-service; the follower promotes itself under the
//! next epoch and the same device keeps buying licenses — the promoted
//! node holds byte-identical state (session counters, RO sequences, even
//! the RNG checkpoint), so nothing is ever re-issued and nothing breaks.
//!
//! The scene, in order:
//!
//! 1. **Serve** — a journaled primary registers a device and sells it a
//!    first license; every event lands in the WAL.
//! 2. **Replicate** — a follower connects to the primary's replication
//!    endpoint, bootstraps from the snapshot and applies the record tail,
//!    acking each batch after fsync.
//! 3. **Fail over** — the primary is fenced (a deposed node refuses to
//!    ship anything more, so it never forks history), the follower
//!    promotes itself, and the device's second purchase completes against
//!    the new primary with the RO-id sequence intact.
//!
//! Run with: `cargo run --release --example roap_cluster`

use oma_drm2::cluster::{
    serve_replication, sync_over_tcp, AckPolicy, ClusterError, Follower, Primary,
};
use oma_drm2::drm::client::RoapClient;
use oma_drm2::drm::journal::RiJournal;
use oma_drm2::drm::{ContentIssuer, DrmAgent, Permission, RiService, RightsTemplate};
use oma_drm2::net::ServerMetrics;
use oma_drm2::pki::{CertificationAuthority, Timestamp};
use oma_drm2::store::RiStore;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::error::Error;
use std::net::TcpListener;
use std::sync::Arc;

fn main() -> Result<(), Box<dyn Error>> {
    let now = Timestamp::new(1_000);
    let mut rng = StdRng::seed_from_u64(7);
    let mut ca = CertificationAuthority::new("cmla", 512, &mut rng);
    let ci = ContentIssuer::new("ci.example.com");
    let (dcf, cek) = ci.package(b"one summer ringtone", "cid:track-1", &mut rng);

    // ---- the primary: journaled service + log shipper --------------------
    let service = Arc::new(RiService::new("ri.example.com", 512, &mut ca, &mut rng));
    let store = Arc::new(RiStore::in_memory());
    service.set_journal(Arc::clone(&store) as Arc<dyn RiJournal>);
    store.snapshot(&|| service.state_image())?;
    service.add_content(
        "cid:track-1",
        cek,
        &dcf,
        RightsTemplate::unlimited(Permission::Play),
    );

    let metrics = Arc::new(ServerMetrics::default());
    let primary = Arc::new(Primary::new("node.a", 1, store).with_metrics(Arc::clone(&metrics)));
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let repl_addr = listener.local_addr()?;
    println!("primary node.a: epoch 1, replication endpoint {repl_addr}");

    // The replication endpoint: one catch-up connection at a time. A
    // fenced primary answers with an error and the loop moves on.
    let serve_primary = Arc::clone(&primary);
    std::thread::spawn(move || {
        for stream in listener.incoming() {
            let Ok(stream) = stream else { break };
            if serve_replication(&serve_primary, stream).is_err() {
                break;
            }
        }
    });

    // ---- serve: alice registers and buys her first license --------------
    let mut alice = DrmAgent::new("alice-phone", 512, &mut ca, &mut rng);
    let client = RoapClient::in_proc(&service);
    alice.register(&client, now)?;
    let response = alice.acquire_rights(&client, "ri.example.com", "cid:track-1", now)?;
    let first_ro = alice.install_rights(&response, now)?;
    alice.consume(&first_ro, &dcf, Permission::Play, now)?;
    println!("alice registered and holds {first_ro:?}");

    // ---- replicate: the follower catches up over TCP ---------------------
    let mut follower = Follower::in_memory("node.b", AckPolicy::OnFsync);
    let applied = sync_over_tcp(&mut follower, repl_addr)?;
    println!(
        "follower node.b: applied {applied} records over TCP, at sequence {}",
        follower.last_sequence()
    );
    println!("primary metrics: {}", metrics.snapshot());
    assert_eq!(
        follower.state_image().unwrap(),
        service.state_image(),
        "caught-up follower holds byte-identical state"
    );

    // ---- fail over: depose node.a, promote node.b ------------------------
    primary.fence();
    let promoted = follower.promote(2)?;
    println!(
        "node.a fenced; node.b promoted under epoch {}",
        promoted.epoch
    );

    // A follower that still syncs from the deposed node is refused.
    let stale = Follower::in_memory("node.c", AckPolicy::OnFsync).handshake();
    let refusal = primary
        .handle(&stale)
        .expect_err("a fenced primary ships nothing");
    assert!(matches!(refusal, ClusterError::Fenced { .. }));
    println!("deposed node.a answers a handshake with: {refusal}");

    // Alice's second purchase runs against the promoted node; her RI
    // context is intact and the RO-id sequence continues where it left off.
    let client = RoapClient::in_proc(&promoted.service);
    let response = alice.acquire_rights(&client, "ri.example.com", "cid:track-1", now)?;
    let second_ro = alice.install_rights(&response, now)?;
    assert_ne!(
        first_ro, second_ro,
        "a promoted primary never re-issues an id"
    );
    alice.consume(&second_ro, &dcf, Permission::Play, now)?;
    println!("alice bought {second_ro:?} from the promoted node — failover invisible");
    Ok(())
}
