//! Durable Rights Issuer: kill-and-recover over a real on-disk WAL.
//!
//! Three boots of one license service, state carried solely by the store
//! directory:
//!
//! 1. **Boot #1** — fresh service, genesis snapshot, served over TCP. A
//!    device registers and buys a license; graceful shutdown flushes the
//!    WAL and writes a snapshot.
//! 2. **Boot #2** — recovered from that snapshot; another device registers
//!    (journaled, fsync'd) and then the service is dropped cold: no flush,
//!    no snapshot, no goodbye.
//! 3. **Boot #3** — recovery replays the WAL on top of the snapshot. Both
//!    devices are still registered, the first device's RI context still
//!    works, and its next Rights Object id continues the sequence — the
//!    service never re-issues an id across a crash.
//!
//! Run with: `cargo run --release --example roap_durable`

use oma_drm2::drm::client::RoapClient;
use oma_drm2::drm::journal::RiJournal;
use oma_drm2::drm::{ContentIssuer, DrmAgent, DrmError, Permission, RiService, RightsTemplate};
use oma_drm2::net::{RoapEventServer, ServerConfig, TcpTransport};
use oma_drm2::pki::{CertificationAuthority, Timestamp};
use oma_drm2::store::{RiStore, StoreConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

fn main() -> Result<(), DrmError> {
    let dir = std::env::temp_dir().join(format!("oma-roap-durable-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let now = Timestamp::new(1_000);
    let mut rng = StdRng::seed_from_u64(42);
    let mut ca = CertificationAuthority::new("cmla", 512, &mut rng);
    let ci = ContentIssuer::new("ci.example.com");
    let (dcf, cek) = ci.package(b"one summer ringtone", "cid:track-1", &mut rng);

    // ---- boot #1: fresh service, genesis snapshot, serve over TCP --------
    println!("boot #1: fresh service, store at {}", dir.display());
    let store = Arc::new(RiStore::open_dir(&dir, StoreConfig::default()).map_err(DrmError::from)?);
    let service = Arc::new(RiService::new("ri.example.com", 512, &mut ca, &mut rng));
    service.set_journal(Arc::clone(&store) as Arc<dyn RiJournal>);
    store.snapshot(&|| service.state_image())?;
    service.add_content(
        "cid:track-1",
        cek,
        &dcf,
        RightsTemplate::unlimited(Permission::Play),
    );

    let server = RoapEventServer::bind(
        Arc::clone(&service),
        ServerConfig::durable(Arc::clone(&store) as Arc<dyn RiJournal>).with_clock(now),
    )?;
    let mut alice = DrmAgent::new("alice-phone", 512, &mut ca, &mut rng);
    let client = RoapClient::new(TcpTransport::connect(server.local_addr())?);
    alice.register_via(&client, now)?;
    let response = alice.acquire_rights_via(&client, "ri.example.com", "cid:track-1", now)?;
    let first_ro = alice.install_rights(&response, now)?;
    alice.consume(&first_ro, &dcf, Permission::Play, now)?;
    println!("   alice registered over TCP and plays under {first_ro}");
    drop(client);
    server.shutdown(); // graceful: flush + snapshot
    drop(service);

    // ---- boot #2: recover, mutate, die without ceremony ------------------
    println!("boot #2: recover from snapshot, then crash without one");
    let store = Arc::new(RiStore::open_dir(&dir, StoreConfig::default()).map_err(DrmError::from)?);
    let service = RiService::recover(&store)?;
    assert!(
        service.is_registered("alice-phone"),
        "alice's registration must survive the restart"
    );
    service.set_journal(Arc::clone(&store) as Arc<dyn RiJournal>);
    let mut bob = DrmAgent::new("bob-player", 512, &mut ca, &mut rng);
    bob.register_with(&service, now)?;
    println!("   bob registered; killing the service cold (no flush, no snapshot)");
    drop(service); // power loss: only the fsync'd WAL survives

    // ---- boot #3: WAL replay resurrects everything -----------------------
    println!("boot #3: recover from snapshot + WAL replay");
    let store = Arc::new(RiStore::open_dir(&dir, StoreConfig::default()).map_err(DrmError::from)?);
    let (image, report) = store.load_with_report().map_err(DrmError::from)?;
    println!(
        "   replayed {} journal events on top of the snapshot",
        report.events_applied
    );
    assert!(
        report.events_applied > 0,
        "bob's registration lives only in the WAL"
    );
    let service = Arc::new(RiService::from_image(image));
    assert!(service.is_registered("alice-phone"));
    assert!(
        service.is_registered("bob-player"),
        "bob's registration must be replayed from the WAL"
    );

    let server = RoapEventServer::bind(
        Arc::clone(&service),
        ServerConfig::durable(Arc::clone(&store) as Arc<dyn RiJournal>).with_clock(now),
    )?;
    let client = RoapClient::new(TcpTransport::connect(server.local_addr())?);
    let response = alice.acquire_rights_via(&client, "ri.example.com", "cid:track-1", now)?;
    let second_ro = alice.install_rights(&response, now)?;
    alice.consume(&second_ro, &dcf, Permission::Play, now)?;
    println!("   alice plays again under {second_ro}");
    assert_eq!(first_ro.as_str(), "ro:ri.example.com:dev:alice-phone:0");
    assert_eq!(
        second_ro.as_str(),
        "ro:ri.example.com:dev:alice-phone:1",
        "the RO id sequence must continue across crashes, never restart"
    );
    drop(client);
    server.shutdown();

    std::fs::remove_dir_all(&dir).ok();
    println!("\nkill-and-recover complete: two crashes, zero lost registrations, no id reuse");
    Ok(())
}
