//! Adversarial ROAP tests: replayed, forged and stale protocol messages
//! must be rejected with the specific error the protocol defines — the seed
//! suite only exercised happy paths.

use oma_drm2::crypto::pss::PssSignature;
use oma_drm2::crypto::rsa::RsaKeyPair;
use oma_drm2::crypto::CryptoEngine;
use oma_drm2::drm::agent::OCSP_MAX_AGE_SECONDS;
use oma_drm2::drm::roap::{DeviceHello, RegistrationRequest, RoapError, NONCE_LEN};
use oma_drm2::drm::{
    ContentIssuer, DrmAgent, DrmError, Permission, RiService, RightsTemplate, RoapTransport,
};
use oma_drm2::explore::fuzz;
use oma_drm2::net::{RoapEventServer, ServerConfig, TcpTransport};
use oma_drm2::pki::{CertificationAuthority, EntityRole, PkiError, Timestamp, ValidityPeriod};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

const BITS: usize = 384;

struct World {
    ca: CertificationAuthority,
    service: RiService,
    rng: StdRng,
}

fn world(seed: u64) -> World {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut ca = CertificationAuthority::new("cmla", BITS, &mut rng);
    let service = RiService::new("ri.example.com", BITS, &mut ca, &mut rng);
    World { ca, service, rng }
}

/// Builds and signs a pass-3 RegistrationRequest exactly as an honest
/// device would.
fn signed_registration_request(
    session_id: u64,
    device_id: &str,
    keys: &RsaKeyPair,
    certificate: &oma_drm2::pki::Certificate,
    engine: &CryptoEngine,
    now: Timestamp,
) -> RegistrationRequest {
    let device_nonce = engine.random_nonce(NONCE_LEN);
    let signed =
        RegistrationRequest::signed_bytes(session_id, device_id, &device_nonce, now, certificate);
    let signature = engine.pss_sign(keys.private(), &signed).unwrap();
    RegistrationRequest {
        session_id,
        device_id: device_id.to_string(),
        device_nonce,
        request_time: now,
        certificate: certificate.clone(),
        signature,
    }
}

#[test]
fn replayed_registration_request_is_rejected() {
    let mut w = world(0xbad0);
    let now = Timestamp::new(1_000);
    let keys = RsaKeyPair::generate(BITS, &mut w.rng);
    let cert = w.ca.issue(
        "victim-phone",
        EntityRole::DrmAgent,
        keys.public().clone(),
        ValidityPeriod::starting_at(Timestamp::new(0), 1_000_000),
    );
    let engine = CryptoEngine::with_seed(7);

    let hello = w.service.hello(&DeviceHello::new("victim-phone"));
    let request =
        signed_registration_request(hello.session_id, "victim-phone", &keys, &cert, &engine, now);

    // The honest exchange succeeds and consumes the session...
    w.service.process_registration(&request, now).unwrap();
    assert!(w.service.is_registered("victim-phone"));

    // ...so replaying the very same request (same session id, same nonce)
    // must be rejected: the session was claimed atomically.
    assert_eq!(
        w.service.process_registration(&request, now),
        Err(RoapError::UnknownSession)
    );
    assert_eq!(
        DrmError::from(RoapError::UnknownSession),
        DrmError::Roap(RoapError::UnknownSession)
    );
}

#[test]
fn registration_with_wrong_device_signature_is_rejected() {
    let mut w = world(0xbad1);
    let now = Timestamp::new(1_000);
    let keys = RsaKeyPair::generate(BITS, &mut w.rng);
    // The certificate is honest, but the attacker signs with a different key.
    let wrong_keys = RsaKeyPair::generate(BITS, &mut w.rng);
    let cert = w.ca.issue(
        "spoofed-phone",
        EntityRole::DrmAgent,
        keys.public().clone(),
        ValidityPeriod::starting_at(Timestamp::new(0), 1_000_000),
    );
    let engine = CryptoEngine::with_seed(8);
    let hello = w.service.hello(&DeviceHello::new("spoofed-phone"));
    let request = signed_registration_request(
        hello.session_id,
        "spoofed-phone",
        &wrong_keys,
        &cert,
        &engine,
        now,
    );
    assert_eq!(
        w.service.process_registration(&request, now),
        Err(RoapError::SignatureInvalid)
    );
    assert!(!w.service.is_registered("spoofed-phone"));
}

#[test]
fn certificate_from_wrong_ca_is_rejected() {
    let mut w = world(0xbad2);
    let now = Timestamp::new(1_000);
    // A parallel trust hierarchy the Rights Issuer does not anchor to.
    let mut evil_ca = CertificationAuthority::new("evil-ca", BITS, &mut w.rng);
    let keys = RsaKeyPair::generate(BITS, &mut w.rng);
    let cert = evil_ca.issue(
        "rogue-phone",
        EntityRole::DrmAgent,
        keys.public().clone(),
        ValidityPeriod::starting_at(Timestamp::new(0), 1_000_000),
    );
    let engine = CryptoEngine::with_seed(9);
    let hello = w.service.hello(&DeviceHello::new("rogue-phone"));
    let request =
        signed_registration_request(hello.session_id, "rogue-phone", &keys, &cert, &engine, now);
    assert_eq!(
        w.service.process_registration(&request, now),
        Err(RoapError::CertificateInvalid)
    );
    assert!(!w.service.is_registered("rogue-phone"));
}

#[test]
fn tampered_ro_response_signature_is_rejected() {
    let mut w = world(0xbad3);
    let now = Timestamp::new(1_000);
    let ci = ContentIssuer::new("ci");
    let (dcf, cek) = ci.package(b"protected track", "cid:track", &mut w.rng);
    w.service.add_content(
        "cid:track",
        cek,
        &dcf,
        RightsTemplate::unlimited(Permission::Play),
    );
    let mut agent = DrmAgent::new("honest-phone", BITS, &mut w.ca, &mut w.rng);
    agent.register_with(&w.service, now).unwrap();
    let response = agent
        .acquire_rights_with(&w.service, "cid:track", now)
        .unwrap();

    let ri_cert = agent
        .ri_context("ri.example.com")
        .unwrap()
        .ri_certificate
        .clone();
    let nonce = response.device_nonce.clone();

    // The genuine response verifies.
    response.verify(agent.engine(), &ri_cert, &nonce).unwrap();

    // A man-in-the-middle flips one signature byte: SignatureInvalid.
    let mut tampered = response.clone();
    let mut bytes = tampered.signature.as_bytes().to_vec();
    bytes[0] ^= 0x80;
    tampered.signature = PssSignature::from_bytes(bytes);
    assert_eq!(
        tampered.verify(agent.engine(), &ri_cert, &nonce),
        Err(RoapError::SignatureInvalid)
    );
    assert_eq!(
        DrmError::from(RoapError::SignatureInvalid),
        DrmError::Roap(RoapError::SignatureInvalid)
    );

    // A replayed response with a stale nonce echo: Malformed.
    let other_nonce = vec![0u8; NONCE_LEN];
    assert_eq!(
        response.verify(agent.engine(), &ri_cert, &other_nonce),
        Err(RoapError::Malformed)
    );

    // Tampering with the Rights Object itself is caught at installation.
    let mut mac_tampered = response.clone();
    mac_tampered.rights_object.mac[0] ^= 1;
    assert_eq!(
        agent.install_rights(&mac_tampered, now),
        Err(DrmError::RightsObjectIntegrity)
    );
}

#[test]
fn stale_ocsp_response_is_rejected() {
    let mut w = world(0xbad4);
    let mut agent = DrmAgent::new("late-phone", BITS, &mut w.ca, &mut w.rng);

    // The service fetched its OCSP response at t = 0; far past the maximum
    // age the agent must refuse to trust it.
    let far_future = Timestamp::new(OCSP_MAX_AGE_SECONDS + 50_000);
    assert_eq!(
        agent.register_with(&w.service, far_future),
        Err(DrmError::Pki(PkiError::OcspResponseStale))
    );
    assert!(!agent.is_registered_with("ri.example.com"));

    // A fresh response fixes it — `refresh_ocsp` takes `&self` and swaps the
    // shared response atomically for all concurrent registrations.
    w.service.refresh_ocsp(&w.ca, far_future);
    agent.register_with(&w.service, far_future).unwrap();

    // A revoked Rights Issuer is rejected even with a fresh response.
    let mut victim = DrmAgent::new("careful-phone", BITS, &mut w.ca, &mut w.rng);
    w.ca.revoke(w.service.certificate().serial());
    w.service.refresh_ocsp(&w.ca, far_future);
    assert_eq!(
        victim.register_with(&w.service, far_future),
        Err(DrmError::Pki(PkiError::CertificateRevoked))
    );
}

// ---------------------------------------------------------------------------
// The malicious-peer corpus, replayed in-process and over TCP
// ---------------------------------------------------------------------------

/// Seed of the fuzz world; [`fuzz::build_corpus`] is a pure function of it,
/// so each path gets a byte-identical world and byte-identical attack
/// frames.
const CORPUS_SEED: u64 = 42;

/// Delivers the corpus through one already-connected transport, returning
/// the raw response frames in corpus order.
fn deliver_corpus<T: RoapTransport>(attacks: &[fuzz::Attack], transport: &T) -> Vec<Vec<u8>> {
    attacks
        .iter()
        .map(|attack| {
            transport
                .roundtrip(&attack.frame)
                .unwrap_or_else(|e| panic!("{}: transport failed: {e:?}", attack.name))
        })
        .collect()
}

#[test]
fn malicious_corpus_is_answered_identically_in_process_and_over_tcp() {
    // In-process dispatch — also the oracle for the expected status frame
    // of every attack.
    let (world, attacks) = fuzz::build_corpus(CORPUS_SEED);
    let in_proc: Vec<Vec<u8>> = attacks
        .iter()
        .map(|attack| world.service.dispatch(&attack.frame))
        .collect();
    for (attack, response) in attacks.iter().zip(&in_proc) {
        assert_eq!(
            response,
            &attack.expected_frame(),
            "{}: wrong status frame from in-process dispatch",
            attack.name
        );
    }

    // The event-loop TCP server, fresh identical world.
    let (world, attacks_event) = fuzz::build_corpus(CORPUS_SEED);
    let server = RoapEventServer::bind(Arc::clone(&world.service), ServerConfig::default())
        .expect("bind event-loop server");
    let transport = TcpTransport::connect(server.local_addr()).expect("connect");
    let event = deliver_corpus(&attacks_event, &transport);
    drop(transport);
    server.shutdown();

    // Byte identity between the two paths, attack by attack.
    for (attack, by_event) in attacks.iter().zip(&event) {
        assert_eq!(
            by_event,
            &attack.expected_frame(),
            "{}: event-loop core diverged from the in-process oracle",
            attack.name
        );
    }
    assert_eq!(in_proc, event);
}
