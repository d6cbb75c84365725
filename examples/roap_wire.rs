//! ROAP on the wire: the full lifecycle over a serialized byte channel.
//!
//! The DRM Agent talks to the Rights Issuer exclusively through a
//! `RoapClient<ChannelTransport>`: every ROAP message is encoded into a
//! `RoapPdu` envelope frame, crosses the channel as bytes, and is handled by
//! `RiService::dispatch` running on a server thread — the same frames a TCP
//! or HTTP transport would carry.
//!
//! Run with: `cargo run --release --example roap_wire`

use oma_drm2::drm::client::{serve, ChannelTransport, RoapClient};
use oma_drm2::drm::roap::DeviceHello;
use oma_drm2::drm::{ContentIssuer, DrmAgent, Permission, RiService, RightsTemplate, RoapPdu};
use oma_drm2::pki::{CertificationAuthority, Timestamp};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let mut rng = StdRng::seed_from_u64(0x0a7e);
    let mut ca = CertificationAuthority::new("cmla", 512, &mut rng);
    let service = RiService::new("ri.example.com", 512, &mut ca, &mut rng);
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

    // Show the envelope a DeviceHello travels in.
    let hello_frame = RoapPdu::DeviceHello(DeviceHello::new("phone-001")).encode();
    println!(
        "DeviceHello on the wire: {} bytes, magic {:?}, version {}\n",
        hello_frame.len(),
        std::str::from_utf8(&hello_frame[..4]).unwrap(),
        hello_frame[4],
    );

    let (client_end, server_end) = ChannelTransport::pair();
    std::thread::scope(|scope| {
        // The service dispatches frames on its own thread until the client
        // endpoint is dropped, at which point `serve` reports the
        // disconnect as a Transport error.
        let service_ref = &service;
        let server = scope.spawn(move || serve(service_ref, &server_end));
        let client = RoapClient::new(client_end);

        agent.register(&client, now).expect("registration");
        println!(
            "registered over the channel: {}",
            agent.is_registered_with("ri.example.com")
        );

        let response = agent
            .acquire_rights(&client, "ri.example.com", "cid:track", now)
            .expect("acquisition");
        let frame = RoapPdu::RoResponse(response.clone()).encode();
        println!("ROResponse frame: {} bytes", frame.len());

        let ro_id = agent.install_rights(&response, now).expect("installation");
        let plaintext = agent
            .consume(&ro_id, &dcf, Permission::Play, now)
            .expect("consumption");
        println!("recovered {} plaintext bytes", plaintext.len());

        agent
            .join_domain(&client, "ri.example.com", &domain, now)
            .expect("join");
        println!("joined domain: {:?}", agent.joined_domains());
        agent.leave_domain(&client, &domain).expect("leave");
        println!("left domain: {:?}", agent.joined_domains());

        drop(client);
        let disconnect = server.join().expect("server thread");
        println!("server saw the hang-up: {:?}", disconnect.unwrap_err());
    });

    assert_eq!(service.issued_ro_count(), 1);
    println!("\nlifecycle complete: 1 RO issued, all messages as PDU frames");
}
