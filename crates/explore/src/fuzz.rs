//! The malicious-peer protocol fuzzer.
//!
//! Every attack in the corpus is a *syntactically valid* ROAP frame that is
//! *semantically* wrong — wrong session id, replayed pass 3, cross-device
//! certificate swap, forged signature, nonexistent domain — paired with the
//! exact [`RoapStatus`] the server must answer. Building the corpus is a
//! pure function of the seed: calling [`build_corpus`] twice with the same
//! seed yields byte-identical worlds and byte-identical attack frames,
//! which is what lets `tests/roap_adversarial.rs` replay one corpus
//! in-process and through the readiness event loop over TCP and demand
//! byte-identical status frames back.
//!
//! None of the attacks mutates server state: each one is rejected before
//! the handler reaches a state-changing step, so the corpus can be
//! delivered in any order, repeatedly, against one service instance.

use oma_crypto::rsa::RsaKeyPair;
use oma_crypto::CryptoEngine;
use oma_drm::roap::{DeviceHello, JoinDomainRequest, RegistrationRequest, RoRequest, NONCE_LEN};
use oma_drm::wire::{RoapPdu, RoapStatus};
use oma_drm::{ContentIssuer, DomainId, Permission, RiService, RightsTemplate, RoapError};
use oma_pki::{Certificate, CertificationAuthority, EntityRole, Timestamp, ValidityPeriod};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

/// RSA modulus size of the fuzz world (small keys, fast corpus builds).
pub const BITS: usize = 384;

/// The protocol timestamp the world is built at.
pub const NOW: u64 = 1_000;

/// The Rights Issuer identity of the fuzz world.
pub const RI_ID: &str = "ri.example.com";

/// The content id with rights on sale.
pub const CONTENT_ID: &str = "cid:fuzz";

/// One corpus entry: a named attack frame and the status the server must
/// answer it with.
pub struct Attack {
    /// Stable attack name (used in test output and trace artifacts).
    pub name: &'static str,
    /// The encoded request frame, ready for any server core.
    pub frame: Vec<u8>,
    /// The exact status PDU the server must answer.
    pub expected: RoapStatus,
}

impl Attack {
    /// The encoded response frame an honest server answers this attack
    /// with — the byte-identity reference for cross-core comparisons.
    pub fn expected_frame(&self) -> Vec<u8> {
        RoapPdu::Status(self.expected).encode()
    }
}

/// The deterministic world the corpus attacks: a service with registered
/// devices, a populated domain and a full domain.
pub struct FuzzWorld {
    /// The service under attack, shareable with the TCP / event-loop
    /// server cores.
    pub service: Arc<RiService>,
}

struct Identity {
    id: String,
    keys: RsaKeyPair,
    certificate: Certificate,
}

fn identity(ca: &mut CertificationAuthority, id: &str, rng: &mut StdRng) -> Identity {
    let keys = RsaKeyPair::generate(BITS, rng);
    let certificate = ca.issue(
        id,
        EntityRole::DrmAgent,
        keys.public().clone(),
        ValidityPeriod::starting_at(Timestamp::new(0), 1_000_000),
    );
    Identity {
        id: id.to_string(),
        keys,
        certificate,
    }
}

/// Builds a signed pass-3 frame exactly as an honest device would, except
/// that every field is caller-controlled.
fn registration_frame(
    session_id: u64,
    device_id: &str,
    signing_keys: &RsaKeyPair,
    certificate: &Certificate,
    engine: &CryptoEngine,
) -> Vec<u8> {
    let now = Timestamp::new(NOW);
    let device_nonce = engine.random_nonce(NONCE_LEN);
    let signed =
        RegistrationRequest::signed_bytes(session_id, device_id, &device_nonce, now, certificate);
    let signature = engine
        .pss_sign(signing_keys.private(), &signed)
        .expect("fuzz keys sign");
    RoapPdu::RegistrationRequest(RegistrationRequest {
        session_id,
        device_id: device_id.to_string(),
        device_nonce,
        request_time: now,
        certificate: certificate.clone(),
        signature,
    })
    .encode()
}

/// Builds a signed RO-request frame with caller-controlled fields.
fn ro_request_frame(
    device_id: &str,
    content_id: &str,
    domain_id: Option<&DomainId>,
    signing_keys: &RsaKeyPair,
    engine: &CryptoEngine,
) -> Vec<u8> {
    let now = Timestamp::new(NOW);
    let device_nonce = engine.random_nonce(NONCE_LEN);
    let signed =
        RoRequest::signed_bytes(device_id, RI_ID, content_id, domain_id, &device_nonce, now);
    let signature = engine
        .pss_sign(signing_keys.private(), &signed)
        .expect("fuzz keys sign");
    RoapPdu::RoRequest(RoRequest {
        device_id: device_id.to_string(),
        ri_id: RI_ID.to_string(),
        content_id: content_id.to_string(),
        domain_id: domain_id.cloned(),
        device_nonce,
        request_time: now,
        signature,
    })
    .encode()
}

/// Builds a signed join-domain frame with caller-controlled fields.
fn join_frame(
    device_id: &str,
    domain_id: &DomainId,
    signing_keys: &RsaKeyPair,
    engine: &CryptoEngine,
) -> Vec<u8> {
    let now = Timestamp::new(NOW);
    let device_nonce = engine.random_nonce(NONCE_LEN);
    let signed = JoinDomainRequest::signed_bytes(device_id, RI_ID, domain_id, &device_nonce, now);
    let signature = engine
        .pss_sign(signing_keys.private(), &signed)
        .expect("fuzz keys sign");
    RoapPdu::JoinDomainRequest(JoinDomainRequest {
        device_id: device_id.to_string(),
        ri_id: RI_ID.to_string(),
        domain_id: domain_id.clone(),
        device_nonce,
        request_time: now,
        signature,
    })
    .encode()
}

/// Registers `who` with the service through the wire path, returning the
/// pass-3 frame that completed the registration (replay material).
fn register(service: &RiService, who: &Identity, engine: &CryptoEngine) -> Vec<u8> {
    let hello_reply = service.dispatch(&RoapPdu::DeviceHello(DeviceHello::new(&who.id)).encode());
    let session_id = match RoapPdu::decode(&hello_reply).expect("hello reply decodes") {
        RoapPdu::RiHello(hello) => hello.session_id,
        other => panic!("hello answered with {other:?}"),
    };
    let frame = registration_frame(session_id, &who.id, &who.keys, &who.certificate, engine);
    match RoapPdu::decode(&service.dispatch(&frame)).expect("registration reply decodes") {
        RoapPdu::RegistrationResponse(_) => frame,
        other => panic!("registration answered with {other:?}"),
    }
}

/// Opens a pending session for `device_id` and returns its session id.
fn open_session(service: &RiService, device_id: &str) -> u64 {
    match RoapPdu::decode(
        &service.dispatch(&RoapPdu::DeviceHello(DeviceHello::new(device_id)).encode()),
    )
    .expect("hello reply decodes")
    {
        RoapPdu::RiHello(hello) => hello.session_id,
        other => panic!("hello answered with {other:?}"),
    }
}

/// Builds the fuzz world and its attack corpus. Identical seeds yield
/// byte-identical worlds and frames.
pub fn build_corpus(seed: u64) -> (FuzzWorld, Vec<Attack>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut ca = CertificationAuthority::new("cmla", BITS, &mut rng);
    let service = RiService::new(RI_ID, BITS, &mut ca, &mut rng);
    let ci = ContentIssuer::new("ci.fuzz");
    let (dcf, cek) = ci.package(b"fuzzed content payload", CONTENT_ID, &mut rng);
    service.add_content(
        CONTENT_ID,
        cek,
        &dcf,
        RightsTemplate::unlimited(Permission::Play),
    );

    let alice = identity(&mut ca, "alice", &mut rng);
    let bob = identity(&mut ca, "bob", &mut rng);
    // Mallory holds a perfectly valid agent certificate — for the id
    // "mallory", not for the ids she claims.
    let mallory = identity(&mut ca, "mallory", &mut rng);
    let mut evil_ca = CertificationAuthority::new("evil-ca", BITS, &mut rng);
    let rogue_keys = RsaKeyPair::generate(BITS, &mut rng);
    let rogue_cert = evil_ca.issue(
        "rogue",
        EntityRole::DrmAgent,
        rogue_keys.public().clone(),
        ValidityPeriod::starting_at(Timestamp::new(0), 1_000_000),
    );

    let engine = CryptoEngine::with_seed(seed ^ 0xf00d);
    // Honest state the attacks push against: alice and bob registered,
    // bob in the `family` domain, the `tiny` domain full.
    let alice_pass3 = register(&service, &alice, &engine);
    register(&service, &bob, &engine);
    let family = service.create_domain("family", 8);
    let tiny = service.create_domain("tiny", 1);
    for reply in [
        service.dispatch(&join_frame(&bob.id, &family, &bob.keys, &engine)),
        service.dispatch(&join_frame(&bob.id, &tiny, &bob.keys, &engine)),
    ] {
        match RoapPdu::decode(&reply).expect("join reply decodes") {
            RoapPdu::JoinDomainResponse(_) => {}
            other => panic!("join answered with {other:?}"),
        }
    }
    // Live pending sessions the session-id attacks reference.
    let carol_session = open_session(&service, "carol");
    let victim_session = open_session(&service, "victim");
    let eve_stale_session = open_session(&service, "eve");
    let _eve_fresh_session = open_session(&service, "eve"); // supersedes the first

    let roap = |e: RoapError| RoapStatus::Roap(e);
    let attacks = vec![
        Attack {
            // Pass 3 answering carol's challenge but claiming to be dave:
            // the session/device binding check fires first.
            name: "wrong-session-id",
            frame: registration_frame(
                carol_session,
                "dave",
                &mallory.keys,
                &mallory.certificate,
                &engine,
            ),
            expected: roap(RoapError::Malformed),
        },
        Attack {
            // Pass 3 for a session id the server never issued.
            name: "out-of-order-pass-three",
            frame: registration_frame(
                u64::MAX,
                &alice.id,
                &alice.keys,
                &alice.certificate,
                &engine,
            ),
            expected: roap(RoapError::UnknownSession),
        },
        Attack {
            // Alice's genuine pass 3, replayed after it already succeeded:
            // the session was claimed atomically by the first delivery.
            name: "replayed-pass-three",
            frame: alice_pass3,
            expected: roap(RoapError::UnknownSession),
        },
        Attack {
            // A second hello superseded eve's first challenge; answering
            // the stale one must fail even though eve is honest.
            name: "superseded-session-pass-three",
            frame: registration_frame(
                eve_stale_session,
                "eve",
                &mallory.keys,
                &mallory.certificate,
                &engine,
            ),
            expected: roap(RoapError::UnknownSession),
        },
        Attack {
            // Mallory answers the victim's challenge with her own (valid!)
            // certificate: the subject pin rejects the swap.
            name: "cross-device-certificate-swap",
            frame: registration_frame(
                victim_session,
                "victim",
                &mallory.keys,
                &mallory.certificate,
                &engine,
            ),
            expected: roap(RoapError::CertificateInvalid),
        },
        Attack {
            // A certificate from a parallel trust hierarchy.
            name: "foreign-ca-certificate",
            frame: registration_frame(victim_session, "victim", &rogue_keys, &rogue_cert, &engine),
            expected: roap(RoapError::CertificateInvalid),
        },
        Attack {
            name: "unregistered-ro-request",
            frame: ro_request_frame("ghost", CONTENT_ID, None, &mallory.keys, &engine),
            expected: roap(RoapError::DeviceNotRegistered),
        },
        Attack {
            // Alice is registered but the request is signed with mallory's
            // key: verified against alice's pinned certificate.
            name: "wrong-key-ro-request",
            frame: ro_request_frame(&alice.id, CONTENT_ID, None, &mallory.keys, &engine),
            expected: roap(RoapError::SignatureInvalid),
        },
        Attack {
            name: "unknown-content-ro-request",
            frame: ro_request_frame(&alice.id, "cid:nope", None, &alice.keys, &engine),
            expected: roap(RoapError::UnknownRightsObject),
        },
        Attack {
            // The domain exists but alice is not a member; the server does
            // not distinguish the two cases on the wire.
            name: "nonmember-domain-ro-request",
            frame: ro_request_frame(&alice.id, CONTENT_ID, Some(&family), &alice.keys, &engine),
            expected: roap(RoapError::UnknownDomain),
        },
        Attack {
            name: "unknown-domain-join",
            frame: join_frame(&alice.id, &DomainId::new("nowhere"), &alice.keys, &engine),
            expected: roap(RoapError::UnknownDomain),
        },
        Attack {
            // `tiny` holds one member (bob) and has no room for alice.
            name: "domain-full-join",
            frame: join_frame(&alice.id, &tiny, &alice.keys, &engine),
            expected: roap(RoapError::DomainFull),
        },
        Attack {
            // Leave-domain is unsigned; the session machine is its only
            // trust boundary and rejects unregistered device ids.
            name: "unregistered-leave-domain",
            frame: RoapPdu::LeaveDomainRequest {
                device_id: "ghost".to_string(),
                domain_id: family.clone(),
            }
            .encode(),
            expected: roap(RoapError::DeviceNotRegistered),
        },
        Attack {
            name: "nonmember-leave-domain",
            frame: RoapPdu::LeaveDomainRequest {
                device_id: alice.id.clone(),
                domain_id: family.clone(),
            }
            .encode(),
            expected: RoapStatus::NotInDomain,
        },
        Attack {
            // A response PDU where a request belongs.
            name: "response-as-request",
            frame: RoapPdu::Status(RoapStatus::Ok).encode(),
            expected: roap(RoapError::Malformed),
        },
    ];

    (
        FuzzWorld {
            service: Arc::new(service),
        },
        attacks,
    )
}

/// Runs the corpus against the in-process dispatch core, returning the
/// names of attacks whose response differed from the expected status
/// frame. Empty means the server answered every attack correctly.
pub fn run_corpus(seed: u64) -> Vec<String> {
    let (world, attacks) = build_corpus(seed);
    let mut failures = Vec::new();
    for attack in &attacks {
        let response = world.service.dispatch(&attack.frame);
        if response != attack.expected_frame() {
            let got = RoapPdu::decode(&response)
                .map(|pdu| format!("{pdu:?}"))
                .unwrap_or_else(|e| format!("undecodable: {e:?}"));
            failures.push(format!(
                "{}: expected {:?}, got {got}",
                attack.name, attack.expected
            ));
        }
    }
    failures
}

#[cfg(test)]
mod tests {
    use super::*;
    use oma_drm::agent::OCSP_MAX_AGE_SECONDS;
    use oma_drm::{DrmAgent, DrmError, RoapClient};
    use oma_pki::PkiError;

    #[test]
    fn corpus_is_deterministic() {
        let (_, a) = build_corpus(0xf522);
        let (_, b) = build_corpus(0xf522);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.name, y.name);
            assert_eq!(x.frame, y.frame, "frame bytes differ for {}", x.name);
            assert_eq!(x.expected, y.expected);
        }
    }

    #[test]
    fn every_attack_is_rejected_with_its_documented_status() {
        let failures = run_corpus(0xa77ac);
        assert!(failures.is_empty(), "{failures:#?}");
    }

    #[test]
    fn attacks_leave_no_trace_in_server_state() {
        // Rejections must not mutate the service: replaying the whole
        // corpus twice yields the same responses, and no attacked identity
        // ends up registered.
        let (world, attacks) = build_corpus(0x51de);
        let first: Vec<Vec<u8>> = attacks
            .iter()
            .map(|a| world.service.dispatch(&a.frame))
            .collect();
        let second: Vec<Vec<u8>> = attacks
            .iter()
            .map(|a| world.service.dispatch(&a.frame))
            .collect();
        assert_eq!(first, second);
        for ghost in ["dave", "ghost", "victim", "rogue", "carol", "eve"] {
            assert!(!world.service.is_registered(ghost), "{ghost} registered");
        }
    }

    /// Agent-direction attacks: a malicious *server* is caught by the
    /// device's own checks (these never reach the wire corpus because the
    /// agent refuses before answering).
    #[test]
    fn stale_ocsp_is_rejected_by_the_agent() {
        let mut rng = StdRng::seed_from_u64(0x0c59);
        let mut ca = CertificationAuthority::new("cmla", BITS, &mut rng);
        let service = RiService::new(RI_ID, BITS, &mut ca, &mut rng);
        let mut agent = DrmAgent::new("phone", BITS, &mut ca, &mut rng);
        // The server serves an OCSP response fetched at t = 0 long past its
        // maximum age; the agent must refuse registration pass 4.
        let late = Timestamp::new(OCSP_MAX_AGE_SECONDS + 10_000);
        assert_eq!(
            agent.register(&RoapClient::in_proc(&service), late),
            Err(DrmError::Pki(PkiError::OcspResponseStale))
        );
        assert!(!agent.is_registered_with(RI_ID));
    }
}
