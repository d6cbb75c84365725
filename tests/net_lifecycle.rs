//! Acceptance tests for ROAP over real sockets: the full device lifecycle
//! completes against a loopback `RoapEventServer`, and the bytes that come
//! back — `ROResponse` frames, Rights Issuer PSS signatures and all — are
//! **identical** to what the in-process `RiService::dispatch` path
//! produces, even when the client deliberately mangles TCP framing
//! (one-byte writes, two frames coalesced into a single write).
//!
//! The comparison trick is the same as `wire_lifecycle`: two worlds built
//! from one seed, so both agents emit byte-identical request frames; one
//! world answers them in-process, the other across the socket.

use oma_drm2::drm::client::RoapClient;
use oma_drm2::drm::{
    ContentIssuer, Dcf, DrmAgent, DrmError, Permission, RiService, RightsTemplate, RoapPdu,
};
use oma_drm2::load::{run_fleet_tcp, run_sequential, FleetSpec};
use oma_drm2::net::{read_frame, RoapEventServer, ServerConfig, TcpTransport};
use oma_drm2::pki::{CertificationAuthority, Timestamp};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::io::Write;
use std::net::TcpStream;
use std::sync::Arc;

const SEED: u64 = 0x07e5_7ec9;
const BITS: usize = 512;

fn now() -> Timestamp {
    Timestamp::new(1_000)
}

struct World {
    service: Arc<RiService>,
    agent: DrmAgent,
    dcf_a: Dcf,
}

/// Builds a deterministic world: CA, service with two catalogue entries, and
/// one agent — all from `SEED`, in a fixed construction order, so two worlds
/// are bit-for-bit clones of each other.
fn world() -> World {
    let mut rng = StdRng::seed_from_u64(SEED);
    let mut ca = CertificationAuthority::new("cmla", BITS, &mut rng);
    let service = RiService::new("ri.example.com", BITS, &mut ca, &mut rng);
    let ci = ContentIssuer::new("ci.example.com");
    let (dcf_a, cek_a) = ci.package(b"track one, protected", "cid:a", &mut rng);
    let (dcf_b, cek_b) = ci.package(b"track two, protected", "cid:b", &mut rng);
    service.add_content(
        "cid:a",
        cek_a,
        &dcf_a,
        RightsTemplate::unlimited(Permission::Play),
    );
    service.add_content(
        "cid:b",
        cek_b,
        &dcf_b,
        RightsTemplate::unlimited(Permission::Play),
    );
    let agent = DrmAgent::new("phone-001", BITS, &mut ca, &mut rng);
    World {
        service: Arc::new(service),
        agent,
        dcf_a,
    }
}

/// The full lifecycle through a `RoapClient<TcpTransport>` produces the same
/// protocol outcome as the in-process client, and the `ROResponse` frames —
/// covering the RI signature, the RO MAC and the wrapped keys — are
/// byte-identical between the two paths.
#[test]
fn tcp_lifecycle_matches_in_proc_byte_for_byte() {
    // World 1: in-process.
    let World {
        service,
        mut agent,
        dcf_a,
    } = world();
    let in_proc = RoapClient::in_proc(&service);
    agent.register(&in_proc, now()).unwrap();
    let reference = agent
        .acquire_rights(&in_proc, "ri.example.com", "cid:a", now())
        .unwrap();
    let ro_id = agent.install_rights(&reference, now()).unwrap();
    let reference_plain = agent
        .consume(&ro_id, &dcf_a, Permission::Play, now())
        .unwrap();

    // World 2: the same bytes, across a real socket.
    let World {
        service,
        mut agent,
        dcf_a,
    } = world();
    let server = RoapEventServer::bind(
        Arc::clone(&service),
        ServerConfig::default().with_clock(now()),
    )
    .unwrap();
    let client = RoapClient::new(TcpTransport::connect(server.local_addr()).unwrap());
    agent.register(&client, now()).unwrap();
    let over_tcp = agent
        .acquire_rights(&client, "ri.example.com", "cid:a", now())
        .unwrap();
    let ro_id = agent.install_rights(&over_tcp, now()).unwrap();
    let tcp_plain = agent
        .consume(&ro_id, &dcf_a, Permission::Play, now())
        .unwrap();

    assert_eq!(
        RoapPdu::RoResponse(reference).encode(),
        RoapPdu::RoResponse(over_tcp).encode(),
        "the ROResponse crossing TCP must be byte-identical to the in-process one"
    );
    assert_eq!(reference_plain, tcp_plain);
    assert_eq!(service.issued_ro_count(), 1);

    drop(client);
    server.shutdown();
}

/// Frames chopped into 1-byte TCP writes and frames coalesced two-per-write
/// both reach `dispatch` intact: the responses are byte-identical to the
/// in-process path answering the very same request frames.
#[test]
fn split_and_coalesced_frames_decode_identically() {
    // World 1 answers every frame in-process — the reference bytes. (Only
    // its service is needed: the request frames come from the TCP world's
    // agent, and both worlds are seeded clones.)
    let reference_world = world();

    // World 2 is served over TCP with hostile framing.
    let tcp_world = world();
    let mut agent = tcp_world.agent;
    let server = RoapEventServer::bind(
        Arc::clone(&tcp_world.service),
        ServerConfig::default().with_clock(now()),
    )
    .unwrap();
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    stream.set_nodelay(true).unwrap();

    // Pass 1-2: the DeviceHello crosses the wire one byte per write.
    let hello_frame =
        RoapPdu::DeviceHello(oma_drm2::drm::roap::DeviceHello::new("phone-001")).encode();
    for byte in &hello_frame {
        stream.write_all(&[*byte]).unwrap();
    }
    let ri_hello_frame = read_frame(&mut stream).unwrap();
    assert_eq!(
        ri_hello_frame,
        reference_world.service.dispatch(&hello_frame),
        "a frame reassembled from 1-byte segments must decode identically"
    );
    let hello = match RoapPdu::decode(&ri_hello_frame).unwrap() {
        RoapPdu::RiHello(h) => h,
        other => panic!("expected RiHello, got {other:?}"),
    };

    // Pass 3-4: the signed RegistrationRequest goes out in 7-byte chunks.
    let request = agent.registration_request(&hello, now()).unwrap();
    let request_frame = RoapPdu::RegistrationRequest(request.clone()).encode();
    for chunk in request_frame.chunks(7) {
        stream.write_all(chunk).unwrap();
    }
    let response_frame = read_frame(&mut stream).unwrap();
    assert_eq!(
        response_frame,
        reference_world.service.dispatch(&request_frame)
    );
    let response = match RoapPdu::decode(&response_frame).unwrap() {
        RoapPdu::RegistrationResponse(r) => r,
        other => panic!("expected RegistrationResponse, got {other:?}"),
    };
    agent
        .complete_registration(&hello, &request, &response, now())
        .unwrap();

    // Acquisition: two RORequests coalesced into ONE TCP write; the server
    // must slice them apart and answer each in order.
    let ro_a = agent
        .ro_request("ri.example.com", "cid:a", None, now())
        .unwrap();
    let ro_b = agent
        .ro_request("ri.example.com", "cid:b", None, now())
        .unwrap();
    let frame_a = RoapPdu::RoRequest(ro_a.clone()).encode();
    let frame_b = RoapPdu::RoRequest(ro_b.clone()).encode();
    let coalesced: Vec<u8> = [frame_a.clone(), frame_b.clone()].concat();
    stream.write_all(&coalesced).unwrap();
    let tcp_response_a = read_frame(&mut stream).unwrap();
    let tcp_response_b = read_frame(&mut stream).unwrap();
    assert_eq!(
        tcp_response_a,
        reference_world.service.dispatch(&frame_a),
        "first coalesced frame must be answered byte-identically"
    );
    assert_eq!(
        tcp_response_b,
        reference_world.service.dispatch(&frame_b),
        "second coalesced frame must be answered byte-identically"
    );

    // And the responses verify: same signatures, same wrapped keys.
    for (request, frame) in [(ro_a, tcp_response_a), (ro_b, tcp_response_b)] {
        let response = match RoapPdu::decode(&frame).unwrap() {
            RoapPdu::RoResponse(r) => r,
            other => panic!("expected RoResponse, got {other:?}"),
        };
        agent.verify_ro_response(&request, &response).unwrap();
    }

    assert_eq!(tcp_world.service.issued_ro_count(), 2);
    drop(stream);
    server.shutdown();
}

/// The TCP fleet driver reports the same deterministic observables — RO
/// ids, content digests, per-phase traces and cycle bills — as the
/// single-threaded in-process reference. Registration counts come from the
/// server-side service, so nothing is lost across connection churn.
#[test]
fn tcp_fleet_matches_sequential_reference() {
    let spec = FleetSpec::new(6, 3);
    let tcp = run_fleet_tcp(&spec).unwrap();
    let reference = run_sequential(&spec).unwrap();
    assert_eq!(tcp.registrations, spec.devices as u64);
    assert!(tcp.duplicate_ro_ids().is_empty());
    assert!(
        tcp.matches(&reference),
        "loopback TCP must not change any deterministic observable"
    );
}

/// A dead client connection ends its conversation with a clean transport
/// error server-side, and a shut-down server refuses further roundtrips
/// with a clean transport error client-side.
#[test]
fn disconnects_surface_cleanly_on_both_ends() {
    let World { service, .. } = world();
    let server = RoapEventServer::bind(service, ServerConfig::default().with_clock(now())).unwrap();
    let client = RoapClient::new(TcpTransport::connect(server.local_addr()).unwrap());
    client
        .hello(&oma_drm2::drm::roap::DeviceHello::new("phone-001"))
        .unwrap();
    server.shutdown();
    let err = client
        .hello(&oma_drm2::drm::roap::DeviceHello::new("phone-001"))
        .unwrap_err();
    assert!(matches!(err, DrmError::Transport(_)), "got {err:?}");
}
