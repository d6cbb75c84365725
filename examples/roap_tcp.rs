//! ROAP over a real socket: the full lifecycle against a loopback TCP server.
//!
//! A `RoapEventServer` serves one shared `RiService` from its event-loop
//! thread; the DRM Agent connects with a `TcpTransport` and runs Registration
//! → Acquisition → Installation → Consumption → Join/Leave Domain — the
//! exact frames of the `roap_wire` example, now crossing the kernel's TCP
//! stack. The server pins the protocol clock (`dispatch_at`), so the peer's
//! `request_time` never decides certificate validity.
//!
//! Run with: `cargo run --release --example roap_tcp`

use oma_drm2::drm::client::RoapClient;
use oma_drm2::drm::{ContentIssuer, DrmAgent, Permission, RiService, RightsTemplate};
use oma_drm2::net::{RoapEventServer, ServerConfig, TcpTransport};
use oma_drm2::pki::{CertificationAuthority, Timestamp};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

fn main() {
    let mut rng = StdRng::seed_from_u64(0x07c9);
    let mut ca = CertificationAuthority::new("cmla", 512, &mut rng);
    let service = Arc::new(RiService::new("ri.example.com", 512, &mut ca, &mut rng));
    let ci = ContentIssuer::new("ci.example.com");
    let (dcf, cek) = ci.package(b"some protected audio content", "cid:track", &mut rng);
    service.add_content(
        "cid:track",
        cek,
        &dcf,
        RightsTemplate::unlimited(Permission::Play),
    );
    let domain = service.create_domain("family", 4);
    let mut agent = DrmAgent::new("phone-001", 512, &mut ca, &mut rng);
    let now = Timestamp::new(1_000);

    // The server owns the protocol clock: every frame is dispatched at a
    // server-chosen timestamp, whatever request_time the peer claims.
    let server = RoapEventServer::bind(
        Arc::clone(&service),
        ServerConfig::default().with_clock(now),
    )
    .expect("bind loopback server");
    println!("RoapEventServer listening on {}\n", server.local_addr());

    let client = RoapClient::new(TcpTransport::connect(server.local_addr()).expect("connect"));

    agent.register_via(&client, now).expect("registration");
    println!(
        "registered over TCP: {}",
        agent.is_registered_with("ri.example.com")
    );

    let response = agent
        .acquire_rights_via(&client, "ri.example.com", "cid:track", now)
        .expect("acquisition");
    let ro_id = agent.install_rights(&response, now).expect("installation");
    let plaintext = agent
        .consume(&ro_id, &dcf, Permission::Play, now)
        .expect("consumption");
    println!("recovered {} plaintext bytes", plaintext.len());

    agent
        .join_domain_via(&client, "ri.example.com", &domain, now)
        .expect("join");
    println!("joined domain: {:?}", agent.joined_domains());
    agent.leave_domain_via(&client, &domain).expect("leave");
    println!("left domain: {:?}", agent.joined_domains());

    // Hang up, then stop the server: accepting ends, in-flight
    // conversations drain, the loop thread joins.
    drop(client);
    server.shutdown();
    println!("\nserver shut down gracefully");

    assert_eq!(service.issued_ro_count(), 1);
    println!("lifecycle complete: 1 RO issued, every frame crossed a real TCP socket");
}
