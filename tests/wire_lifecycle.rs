//! Acceptance test for the wire redesign: the full lifecycle —
//! Registration → Acquisition → Installation → Consumption → Join Domain →
//! Domain Acquisition → Leave Domain — completes over a
//! `RoapClient<ChannelTransport>` (a real serialized byte channel with the
//! service dispatching on another thread), and produces **byte-identical
//! signatures and identical crypto cycle counts** to the in-process path.
//!
//! Two independent worlds are built from the same seed; one is driven
//! through `RoapClient::in_proc` on the calling thread, the other through
//! the channel. Everything deterministic must match: the encoded
//! `ROResponse` frames (covering the Rights Issuer PSS signatures, the RO
//! MAC and the wrapped keys byte for byte), the recovered plaintexts, the
//! per-phase operation traces the device's backend executed and their
//! per-phase cycle prices.

use oma_drm2::crypto::backend::SoftwareBackend;
use oma_drm2::crypto::OpTrace;
use oma_drm2::drm::client::{serve, ChannelTransport, RoapClient, RoapTransport};
use oma_drm2::drm::{
    ContentIssuer, Dcf, DomainId, DrmAgent, DrmError, Permission, RiService, RightsTemplate,
    RoapPdu,
};
use oma_drm2::pki::{CertificationAuthority, Timestamp};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

const SEED: u64 = 0x0a7e_57a7;
const BITS: usize = 512;

struct World {
    service: RiService,
    agent: DrmAgent,
    dcf: Dcf,
    domain: DomainId,
}

fn world() -> World {
    let mut rng = StdRng::seed_from_u64(SEED);
    let mut ca = CertificationAuthority::new("cmla", BITS, &mut rng);
    let service = RiService::new("ri.example.com", BITS, &mut ca, &mut rng);
    let ci = ContentIssuer::new("ci.example.com");
    let (dcf, cek) = ci.package(b"wire-identical audio bytes", "cid:track", &mut rng);
    service.add_content(
        "cid:track",
        cek,
        &dcf,
        RightsTemplate::unlimited(Permission::Play),
    );
    let domain = service.create_domain("family", 4);
    let agent = DrmAgent::with_backend(
        "phone-001",
        BITS,
        &mut ca,
        Arc::new(SoftwareBackend::new()),
        &mut rng,
    );
    World {
        service,
        agent,
        dcf,
        domain,
    }
}

/// Everything deterministic one lifecycle run produces.
#[derive(Debug, PartialEq)]
struct Outcome {
    ro_response_frame: Vec<u8>,
    domain_ro_response_frame: Vec<u8>,
    plaintexts: Vec<Vec<u8>>,
    phase_traces: Vec<OpTrace>,
    phase_cycles: Vec<u64>,
}

/// The client side of the whole lifecycle over any transport, recording
/// the trace and cycle bill of each phase.
fn drive<T: RoapTransport>(
    agent: &mut DrmAgent,
    dcf: &Dcf,
    domain: &DomainId,
    client: &RoapClient<T>,
) -> Outcome {
    const RI_ID: &str = "ri.example.com";
    let now = Timestamp::new(1_000);
    let mut phase_traces = Vec::new();
    let mut phase_cycles = Vec::new();
    let mut plaintexts = Vec::new();
    let mut end_phase = |agent: &DrmAgent| {
        let trace = agent.engine().take_trace();
        phase_cycles.push(agent.engine().backend().price(&trace));
        phase_traces.push(trace);
    };

    agent.register(client, now).unwrap();
    end_phase(agent);

    let response = agent
        .acquire_rights(client, RI_ID, "cid:track", now)
        .unwrap();
    end_phase(agent);

    let ro_id = agent.install_rights(&response, now).unwrap();
    plaintexts.push(agent.consume(&ro_id, dcf, Permission::Play, now).unwrap());
    end_phase(agent);

    agent.join_domain(client, RI_ID, domain, now).unwrap();
    let domain_response = agent
        .acquire_domain_rights(client, RI_ID, "cid:track", domain, now)
        .unwrap();
    let domain_ro_id = agent.install_rights(&domain_response, now).unwrap();
    plaintexts.push(
        agent
            .consume(&domain_ro_id, dcf, Permission::Play, now)
            .unwrap(),
    );
    agent.leave_domain(client, domain).unwrap();
    end_phase(agent);

    Outcome {
        ro_response_frame: RoapPdu::RoResponse(response).encode(),
        domain_ro_response_frame: RoapPdu::RoResponse(domain_response).encode(),
        plaintexts,
        phase_traces,
        phase_cycles,
    }
}

/// Drives the whole lifecycle in a fresh world: in process on this thread
/// (`in_proc`), or over a byte channel served on another thread.
fn run_lifecycle(in_proc: bool) -> Outcome {
    let World {
        service,
        mut agent,
        dcf,
        domain,
    } = world();
    agent.engine().reset_trace();

    let outcome = if in_proc {
        let client = RoapClient::in_proc(&service);
        drive(&mut agent, &dcf, &domain, &client)
    } else {
        let (client_end, server_end) = ChannelTransport::pair();
        std::thread::scope(|scope| {
            let service_ref = &service;
            let server = scope.spawn(move || serve(service_ref, &server_end));
            let client = RoapClient::new(client_end);
            let outcome = drive(&mut agent, &dcf, &domain, &client);
            // Dropping the client closes the channel; `serve` surfaces the
            // disconnect as a Transport error instead of spinning on the
            // dead endpoint.
            drop(client);
            assert!(matches!(
                server.join().unwrap(),
                Err(DrmError::Transport(_))
            ));
            outcome
        })
    };

    assert_eq!(service.registered_count(), 1);
    assert_eq!(service.issued_ro_count(), 2);
    assert_eq!(service.domain_member_count(&domain), Some(0));
    outcome
}

#[test]
fn channel_lifecycle_is_byte_identical_to_direct_calls() {
    let direct = run_lifecycle(true);
    let wire = run_lifecycle(false);

    assert_eq!(
        direct.ro_response_frame, wire.ro_response_frame,
        "Device-RO response (RI signature, MAC, wrapped keys) must be byte-identical"
    );
    assert_eq!(
        direct.domain_ro_response_frame, wire.domain_ro_response_frame,
        "Domain-RO response must be byte-identical"
    );
    assert_eq!(direct.plaintexts, wire.plaintexts);
    assert_eq!(
        direct.phase_traces, wire.phase_traces,
        "per-phase operation traces must match between wire and direct paths"
    );
    assert_eq!(
        direct.phase_cycles, wire.phase_cycles,
        "per-phase crypto cycle counts must match between wire and direct paths"
    );
    assert_eq!(direct.plaintexts[0], b"wire-identical audio bytes");
}

#[test]
fn relabelled_ri_identity_is_rejected_at_registration() {
    use oma_drm2::drm::roap::DeviceHello;
    use oma_drm2::drm::{DrmError, RoapError};
    let World {
        service, mut agent, ..
    } = world();
    let now = Timestamp::new(1_000);
    let client = RoapClient::in_proc(&service);
    let hello = client.hello(&DeviceHello::new("phone-001")).unwrap();
    let request = agent.registration_request(&hello, now).unwrap();
    let response = client.register(&request).unwrap();

    // A wire attacker controls both the hello and the response, so it can
    // make the ri_id echo self-consistent — but it cannot make the
    // CA-attested certificate subject match the stolen identity.
    let mut relabelled_hello = hello.clone();
    relabelled_hello.ri_id = "ri.evil.example".into();
    let mut relabelled_response = response.clone();
    relabelled_response.ri_id = "ri.evil.example".into();
    assert_eq!(
        agent.complete_registration(&relabelled_hello, &request, &relabelled_response, now),
        Err(DrmError::Roap(RoapError::CertificateInvalid))
    );
    assert!(!agent.is_registered_with("ri.evil.example"));

    // The untampered exchange still completes.
    agent
        .complete_registration(&hello, &request, &response, now)
        .unwrap();
    assert!(agent.is_registered_with("ri.example.com"));
}

#[test]
fn dispatch_at_pins_the_server_clock() {
    use oma_drm2::drm::roap::DeviceHello;
    use oma_drm2::drm::wire::RoapStatus;
    use oma_drm2::drm::{RoapError, CERT_VALIDITY_SECONDS};
    let World {
        service, mut agent, ..
    } = world();

    let hello_frame = RoapPdu::DeviceHello(DeviceHello::new("phone-001")).encode();
    let ri_hello = match RoapPdu::decode(&service.dispatch(&hello_frame)).unwrap() {
        RoapPdu::RiHello(h) => h,
        other => panic!("expected RiHello, got {}", other.name()),
    };
    // The request back-dates itself inside the certificate's validity
    // window; a server that owns a clock must not honour that.
    let request = agent
        .registration_request(&ri_hello, Timestamp::new(1_000))
        .unwrap();
    let frame = RoapPdu::RegistrationRequest(request).encode();
    let expired = Timestamp::new(CERT_VALIDITY_SECONDS + 10_000);
    assert_eq!(
        RoapPdu::decode(&service.dispatch_at(&frame, expired)).unwrap(),
        RoapPdu::Status(RoapStatus::Roap(RoapError::CertificateInvalid)),
        "dispatch_at must validate the certificate at the server's clock"
    );
}

#[test]
fn wire_errors_carry_protocol_reasons_across_the_channel() {
    use oma_drm2::drm::{DrmError, RoapError};
    let World {
        service, mut agent, ..
    } = world();
    let now = Timestamp::new(1_000);
    let (client_end, server_end) = ChannelTransport::pair();
    std::thread::scope(|scope| {
        let service_ref = &service;
        scope.spawn(move || serve(service_ref, &server_end));
        let client = RoapClient::new(client_end);
        agent.register(&client, now).unwrap();
        // Unknown content: the wire peer reports the specific ROAP error.
        assert_eq!(
            agent
                .acquire_rights(&client, "ri.example.com", "cid:nope", now)
                .unwrap_err(),
            DrmError::Roap(RoapError::UnknownRightsObject)
        );
        // Unknown domain on leave: status PDUs round-trip both error kinds.
        assert_eq!(
            agent
                .leave_domain(&client, &DomainId::new("ghost"))
                .unwrap_err(),
            DrmError::Roap(RoapError::UnknownDomain)
        );
        assert_eq!(
            agent
                .join_domain(&client, "ri.example.com", &DomainId::new("ghost"), now)
                .unwrap_err(),
            DrmError::Roap(RoapError::UnknownDomain)
        );
        drop(client);
    });
}
